//! The serving frontend world: admission → EDF queue → batch formation →
//! dispatch into the FLEP runtime.
//!
//! [`ServeWorld`] embeds a [`GpuCluster`] rather than wrapping the
//! [`CoRun`](flep_runtime::CoRun) driver: the frontend owns the event loop
//! (its event type covers both arrival events and cluster-internal
//! events) and forwards cluster events via [`GpuCluster::dispatch_to`],
//! which hands their follow-ups straight to the frontend's queue. The
//! frontend itself works only when something changed: it settles and
//! dispatches after an event that settled or migrated a batch, or that
//! queued a request for a tenant with no batch in flight, and expires
//! queued requests lazily. Batches enter
//! through [`GpuCluster::submit`], which places each on the least-loaded
//! healthy device; within a device a high-priority batch preempts a
//! running low-priority batch through the ordinary HPF path — flag first,
//! then the watchdog's forced-drain and kill escalations when the victim
//! ignores it. Device failures (hang / transient loss / death) evict
//! resident batches and migrate them to survivors, so goodput degrades
//! with lost capacity instead of losing requests.
//!
//! With one device and no device faults the cluster is a transparent
//! wrapper: event streams — and therefore golden traces — are
//! byte-identical to the previous direct-embedding frontend.

use std::fmt::Write;

use crate::arrivals::ArrivalProcess;
use crate::brownout::BrownoutConfig;
use crate::queue::{AdmissionControl, DropReason, EdfQueue};
use flep_gpu_sim::{
    CorrelatedFaultConfig, CorrelatedFaultKind, DeviceFaultConfig, DeviceFaultKind,
    FailureTopology, FaultConfig, GpuConfig, TaskCost,
};
use flep_metrics::{tail_triple_ns, Percentiles, RecoverySummary};
use flep_runtime::{
    ClusterConfig, ClusterEvent, GpuCluster, HealthConfig, JobSpec, KernelProfile, PlacementConfig,
    Policy, RecoveryAction, Settled, WatchdogConfig,
};
use flep_sim_core::json::{JsonValue, ToJson};
use flep_sim_core::{RunOutcome, SimRng, SimTime, Simulation, World};
use flep_workloads::{InferenceModel, ModelId};

/// One admitted inference request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Arrival instant.
    pub arrival: SimTime,
    /// Latency deadline (`arrival + slo`).
    pub deadline: SimTime,
    /// Per-tenant admission sequence number (tie-break witness).
    pub seq: u64,
}

/// One tenant: a deployed model, its load, and its scheduling class.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (stable; appears in reports and golden traces).
    pub name: String,
    /// Which inference model this tenant serves.
    pub model: ModelId,
    /// Runtime priority: higher preempts lower via HPF.
    pub priority: u32,
    /// Open-loop arrival process.
    pub arrivals: ArrivalProcess,
    /// Queue depth bound for admission control.
    pub queue_cap: usize,
    /// Latency SLO; `None` uses the model's default.
    pub slo: Option<SimTime>,
    /// Largest batch formed per dispatch.
    pub max_batch: u64,
}

impl TenantSpec {
    /// A tenant serving `model` with its default SLO and sensible
    /// serving defaults (queue cap 256, batch cap 32).
    #[must_use]
    pub fn new(name: &str, model: ModelId, priority: u32, arrivals: ArrivalProcess) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            model,
            priority,
            arrivals,
            queue_cap: 256,
            slo: None,
            max_batch: 32,
        }
    }

    /// The effective SLO.
    #[must_use]
    pub fn effective_slo(&self) -> SimTime {
        self.slo
            .unwrap_or_else(|| InferenceModel::get(self.model).slo)
    }
}

/// A full serving experiment description.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Root seed; everything (arrivals, kernel noise, faults) derives
    /// from it deterministically.
    pub seed: u64,
    /// Arrivals stop here; the sim then drains to completion.
    pub horizon: SimTime,
    /// Runtime scheduling policy (default: HPF).
    pub policy: Policy,
    /// Watchdog configuration (always on: serving without the escalation
    /// ladder would hang on the first stuck victim).
    pub watchdog: WatchdogConfig,
    /// Optional seeded grid-fault plan. Each device derives its own plan
    /// from this seed (device 0 uses it verbatim).
    pub faults: Option<FaultConfig>,
    /// Event budget for the embedded discrete-event run.
    pub event_budget: u64,
    /// Number of simulated GPUs behind the frontend (default 1).
    pub devices: u32,
    /// Seeded device-fault injection (hang / transient loss / death).
    pub device_faults: Option<DeviceFaultConfig>,
    /// Scripted device faults `(time, device, kind)` — the reproducible
    /// way to stage "device k dies mid-run" scenarios.
    pub scripted_device_faults: Vec<(SimTime, u32, DeviceFaultKind)>,
    /// Per-batch migration budget before the batch fails structurally.
    pub max_migrations: u32,
    /// Failure topology of the fleet (`None` = flat: every device its
    /// own rack and zone).
    pub topology: Option<FailureTopology>,
    /// Seeded correlated-outage injection (zone outages, rack power
    /// cycles) over the topology.
    pub correlated_faults: Option<CorrelatedFaultConfig>,
    /// Scripted correlated faults `(time, kind)` — the reproducible way
    /// to stage "zone 0 goes dark mid-run" scenarios.
    pub scripted_correlated: Vec<(SimTime, CorrelatedFaultKind)>,
    /// Per-device health scoring and circuit breaking (`None` = off).
    pub health: Option<HealthConfig>,
    /// Placement constraints (tenant anti-affinity, spread across racks).
    pub placement: PlacementConfig,
    /// Graceful-degradation tiers: under lost capacity, shed the
    /// lowest-priority / loosest-SLO arrivals at the door (`None` = never
    /// shed).
    pub brownout: Option<BrownoutConfig>,
    /// The tenants.
    pub tenants: Vec<TenantSpec>,
}

impl ServeConfig {
    /// A config with the given tenants and defaults everywhere else.
    #[must_use]
    pub fn new(seed: u64, horizon: SimTime, tenants: Vec<TenantSpec>) -> ServeConfig {
        ServeConfig {
            seed,
            horizon,
            policy: Policy::hpf(),
            watchdog: WatchdogConfig::default(),
            faults: None,
            event_budget: flep_runtime::DEFAULT_EVENT_BUDGET,
            devices: 1,
            device_faults: None,
            scripted_device_faults: Vec::new(),
            max_migrations: 8,
            topology: None,
            correlated_faults: None,
            scripted_correlated: Vec::new(),
            health: None,
            placement: PlacementConfig::default(),
            brownout: None,
            tenants,
        }
    }
}

/// Frontend event type: tenant arrivals interleaved with cluster events.
#[derive(Debug)]
pub enum ServeEvent {
    /// A request arrives for tenant `idx`.
    Arrival {
        /// Tenant index.
        tenant: usize,
    },
    /// A forwarded cluster event (shard-internal runtime events plus
    /// device faults and restores).
    Sys(ClusterEvent),
}

/// Per-tenant serving counters. Every admitted request ends in exactly one
/// of `completed` (split into `goodput` / `slo_miss`), `expired`, or
/// `failed`; [`TenantReport::reconciles`] checks the ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests the arrival process offered.
    pub offered: u64,
    /// Requests past admission control.
    pub admitted: u64,
    /// Dropped at the door: deadline already passed.
    pub dropped_past_deadline: u64,
    /// Dropped at the door: queue full.
    pub dropped_queue_full: u64,
    /// Shed at the door by a brownout tier (degraded capacity).
    pub shed: u64,
    /// Admitted but expired in the queue before dispatch.
    pub expired: u64,
    /// Requests whose batch completed on the GPU.
    pub completed: u64,
    /// Completed within the deadline.
    pub goodput: u64,
    /// Completed, but late.
    pub slo_miss: u64,
    /// Requests lost to a failed batch (permanent launch failure, kill
    /// without restore, retries exhausted).
    pub failed: u64,
    /// Batches submitted to the runtime.
    pub batches: u64,
    /// Batches of this tenant migrated to another device after a device
    /// loss (informational; migrated batches still settle as completed or
    /// failed, so this is *not* part of the request ledger).
    pub migrated: u64,
}

struct Tenant {
    spec: TenantSpec,
    admission: AdmissionControl,
    queue: EdfQueue<Request>,
    rng: SimRng,
    next_seq: u64,
    /// The tenant's one in-flight batch, if any.
    inflight: Option<BatchMeta>,
    stats: TenantStats,
    /// Completed-request latencies, ns.
    latencies: Vec<u64>,
}

/// An in-flight batch: the frontend holds it only until the batch
/// settles.
struct BatchMeta {
    /// Cluster job index (stable across migrations).
    job: usize,
    requests: Vec<Request>,
}

/// The serving world: tenant frontends plus the embedded GPU cluster.
pub struct ServeWorld {
    cluster: GpuCluster,
    tenants: Vec<Tenant>,
    horizon: SimTime,
    seed: u64,
    /// Fleet size (denominator of the brownout capacity fraction).
    fleet: u32,
    /// Graceful-degradation policy, if any.
    brownout: Option<BrownoutConfig>,
    /// The instant of the last event handled. Queues expire lazily: a
    /// tenant's queue is brought up to this instant where something reads
    /// it (admission, the end-of-run ledger), which is exactly what an
    /// expiry pass after every event would have left there.
    last_now: SimTime,
    /// Scratch buffers (kept allocated across events).
    migrated_scratch: Vec<(SimTime, usize)>,
    /// Settled batches drained from the cluster; their job records are
    /// dropped, as the report is built from the request ledger instead.
    settled_scratch: Vec<Settled>,
}

impl ServeWorld {
    /// Builds the world and the initial event set for `cfg`.
    ///
    /// Returns the world plus the initial `(time, event)` pairs the
    /// driver must schedule (first arrival per tenant, then the cluster's
    /// own initial events: per-device watchdog ticks and fault draws).
    #[must_use]
    pub fn new(cfg: &ServeConfig) -> (ServeWorld, Vec<(SimTime, ServeEvent)>) {
        let ccfg = ClusterConfig {
            devices: cfg.devices,
            gpu: GpuConfig::k40(),
            policy: cfg.policy,
            watchdog: Some(cfg.watchdog),
            grid_faults: cfg.faults,
            device_faults: cfg.device_faults,
            scripted_faults: cfg.scripted_device_faults.clone(),
            max_migrations: cfg.max_migrations,
            topology: cfg.topology,
            correlated_faults: cfg.correlated_faults,
            scripted_correlated: cfg.scripted_correlated.clone(),
            health: cfg.health,
            placement: cfg.placement,
        };
        let (cluster, cluster_initial) = GpuCluster::new(&ccfg);

        let mut initial = Vec::new();
        let tenants: Vec<Tenant> = cfg
            .tenants
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut rng = SimRng::stream(cfg.seed, i as u64);
                let first = spec.arrivals.next_after(SimTime::ZERO, &mut rng);
                if first < cfg.horizon {
                    initial.push((first, ServeEvent::Arrival { tenant: i }));
                }
                Tenant {
                    admission: AdmissionControl {
                        queue_cap: spec.queue_cap,
                    },
                    queue: EdfQueue::new(),
                    rng,
                    next_seq: 0,
                    inflight: None,
                    stats: TenantStats::default(),
                    latencies: Vec::new(),
                    spec: spec.clone(),
                }
            })
            .collect();
        // The cluster's own initial events (per-device watchdog ticks and
        // first fault draws) come after the arrivals — for one device this
        // is exactly the old single-tick order, so traces replay
        // byte-identically.
        for (at, ev) in cluster_initial {
            initial.push((at, ServeEvent::Sys(ev)));
        }

        let world = ServeWorld {
            cluster,
            tenants,
            horizon: cfg.horizon,
            seed: cfg.seed,
            fleet: cfg.devices.max(1),
            brownout: cfg.brownout.clone().filter(|b| !b.is_empty()),
            last_now: SimTime::ZERO,
            migrated_scratch: Vec::new(),
            settled_scratch: Vec::new(),
        };
        (world, initial)
    }

    /// Handles one arrival. Returns whether it made its tenant eligible
    /// for dispatch: admitted while the tenant had no batch in flight.
    fn on_arrival(
        &mut self,
        now: SimTime,
        idx: usize,
        sched: &mut flep_sim_core::Scheduler<'_, ServeEvent>,
    ) -> bool {
        // Brownout gate: under degraded capacity, the lowest-priority /
        // loosest-SLO classes are shed before admission control even
        // looks at them. The capacity fraction reads the cluster's live
        // placement eligibility, so breaker quarantines count as lost
        // capacity exactly like zone outages.
        let shed = self.brownout.as_ref().is_some_and(|b| {
            let capacity = f64::from(self.cluster.placement_eligible()) / f64::from(self.fleet);
            let spec = &self.tenants[idx].spec;
            b.sheds(capacity, spec.priority, spec.effective_slo())
        });
        let t = &mut self.tenants[idx];
        t.stats.offered += 1;
        if shed {
            t.stats.shed += 1;
            let next = t.spec.arrivals.next_after(now, &mut t.rng);
            if next < self.horizon {
                sched.schedule_at(next, ServeEvent::Arrival { tenant: idx });
            }
            return false;
        }
        // Admission sees the queue as the last event left it.
        t.stats.expired += t.queue.expire(self.last_now) as u64;
        let deadline = now + t.spec.effective_slo();
        let decision = t.admission.decide(now, deadline, t.queue.len());
        match decision {
            Ok(()) => {
                let seq = t.next_seq;
                t.next_seq += 1;
                t.queue.push(
                    deadline,
                    Request {
                        arrival: now,
                        deadline,
                        seq,
                    },
                );
                t.stats.admitted += 1;
            }
            Err(DropReason::PastDeadline) => t.stats.dropped_past_deadline += 1,
            Err(DropReason::QueueFull) => t.stats.dropped_queue_full += 1,
        }
        // Open-loop: the next arrival comes regardless of the admission
        // outcome. Arrivals stop at the horizon.
        let next = t.spec.arrivals.next_after(now, &mut t.rng);
        if next < self.horizon {
            sched.schedule_at(next, ServeEvent::Arrival { tenant: idx });
        }
        decision.is_ok() && t.inflight.is_none()
    }

    /// The tenant whose in-flight batch is cluster job `job`, if any.
    fn batch_owner(&mut self, job: usize) -> Option<&mut Tenant> {
        self.tenants
            .iter_mut()
            .find(|t| t.inflight.as_ref().is_some_and(|b| b.job == job))
    }

    /// Settles finished cluster jobs back into request-level accounting.
    fn reap(&mut self) {
        // Migrations first (they precede any settling of the same batch
        // and don't settle requests — the batch is still in flight on its
        // new device); counted per tenant for visibility.
        let mut migrated = std::mem::take(&mut self.migrated_scratch);
        self.cluster.drain_migrations_into(&mut migrated);
        for (_, job) in migrated.drain(..) {
            if let Some(t) = self.batch_owner(job) {
                t.stats.migrated += 1;
            }
        }
        self.migrated_scratch = migrated;
        let mut settled = std::mem::take(&mut self.settled_scratch);
        self.cluster.drain_settled_into(&mut settled);
        for s in settled.drain(..) {
            self.settle_batch(s.at, s.job, s.completed);
        }
        self.settled_scratch = settled;
    }

    fn settle_batch(&mut self, at: SimTime, job: usize, completed: bool) {
        let Some(t) = self.batch_owner(job) else {
            return;
        };
        let meta = t.inflight.take().expect("the owner has a batch in flight");
        for req in &meta.requests {
            if completed {
                t.stats.completed += 1;
                t.latencies.push(at.saturating_sub(req.arrival).as_ns());
                if at <= req.deadline {
                    t.stats.goodput += 1;
                } else {
                    t.stats.slo_miss += 1;
                }
            } else {
                t.stats.failed += 1;
            }
        }
    }

    /// Forms and submits batches until no tenant is eligible. Returns
    /// whether anything was submitted (a submission can fail synchronously
    /// inside the runtime, so the caller reaps and retries to fixpoint).
    fn try_dispatch(&mut self, now: SimTime) -> bool {
        let mut submitted = false;
        loop {
            // Shed requests that already missed while queued, so head
            // deadlines (the EDF keys below) are live.
            for t in &mut self.tenants {
                t.stats.expired += t.queue.expire(now) as u64;
            }

            // Global EDF across tenants: the eligible tenant (≤1 batch in
            // flight each) with the earliest head deadline goes first;
            // ties break on tenant index.
            let pick = self
                .tenants
                .iter()
                .enumerate()
                .filter(|(_, t)| t.inflight.is_none())
                .filter_map(|(i, t)| t.queue.peek_deadline().map(|d| (d, i)))
                .min();
            let Some((_, idx)) = pick else { break };
            self.submit_batch(now, idx);
            submitted = true;
        }
        submitted
    }

    fn submit_batch(&mut self, now: SimTime, idx: usize) {
        let t = &mut self.tenants[idx];
        let model = InferenceModel::get(t.spec.model);
        let size = (t.queue.len() as u64).min(t.spec.max_batch) as usize;
        let mut requests = Vec::with_capacity(size);
        requests.extend(
            std::iter::from_fn(|| t.queue.pop())
                .take(size)
                .map(|(_, r)| r),
        );
        debug_assert!(!requests.is_empty(), "dispatch picked an empty queue");
        let batch_no = t.stats.batches;
        t.stats.batches += 1;
        // A fresh noise seed per batch, derived from the root seed so the
        // trace replays bit-identically.
        let noise_seed = SimRng::stream(self.seed, ((idx as u64) << 40) | batch_no).u64();
        // Sized for the tenant name, '#' and any u64 up front: `format!`
        // would allocate twice growing the string.
        let mut name = String::with_capacity(t.spec.name.len() + 21);
        write!(name, "{}#{batch_no}", t.spec.name).expect("a String accepts every write");
        let profile = KernelProfile {
            name,
            resources: model.resources,
            total_tasks: requests.len() as u64,
            task_cost: TaskCost {
                base: model.unit_cost,
                rel_noise: model.rel_noise,
            },
            mem_intensity: model.mem_intensity,
            amortize: model.amortize,
        };
        let spec = JobSpec::new(profile, now)
            .with_priority(t.spec.priority)
            .with_seed(noise_seed)
            .with_tenant(idx as u32);
        let job = self.cluster.submit(now, spec);
        self.tenants[idx].inflight = Some(BatchMeta { job, requests });
    }

    /// Read access to the embedded cluster (for tests).
    #[must_use]
    pub fn cluster(&self) -> &GpuCluster {
        &self.cluster
    }

    /// Builds the report of a run that ended at `end_time` after
    /// `events` dispatches: what [`run_serve`] returns, for a caller that
    /// stepped the [`Simulation`] itself.
    #[must_use]
    pub fn into_report(
        mut self,
        end_time: SimTime,
        outcome: ServeOutcome,
        events: u64,
    ) -> ServeReport {
        // Bring every queue up to the last event, as an expiry pass there
        // would have, before the leftovers are counted.
        for t in &mut self.tenants {
            t.stats.expired += t.queue.expire(self.last_now) as u64;
        }
        // A budget abort strands in-flight batches; their requests are
        // neither completed nor failed, so count them explicitly to keep
        // the ledger exact.
        let inflight_by_tenant: Vec<u64> = self
            .tenants
            .iter()
            .map(|t| t.inflight.as_ref().map_or(0, |b| b.requests.len() as u64))
            .collect();
        let mut leftover = 0u64;
        // Each tenant's samples are sorted once for its own percentiles;
        // the overall ones walk those sorted runs, so no sample is copied.
        let mut sorted: Vec<Vec<u64>> = Vec::with_capacity(self.tenants.len());
        let tenants: Vec<TenantReport> = self
            .tenants
            .into_iter()
            .zip(inflight_by_tenant)
            .map(|(mut t, inflight_at_end)| {
                leftover += t.queue.len() as u64 + inflight_at_end;
                let latency = Percentiles::of_ns(&mut t.latencies);
                sorted.push(std::mem::take(&mut t.latencies));
                TenantReport {
                    name: t.spec.name,
                    model: t.spec.model,
                    priority: t.spec.priority,
                    stats: t.stats,
                    latency,
                    queued_at_end: t.queue.len() as u64,
                    inflight_at_end,
                }
            })
            .collect();
        let latency = Percentiles::of_sorted_runs(&sorted);
        drop(sorted);
        let devices = self.cluster.devices();
        let shed_total: u64 = tenants.iter().map(|t| t.stats.shed).sum();
        let result = self.cluster.into_result(end_time);
        let mut summary = result.summary;
        summary.shed = shed_total;
        // Migrations are counted separately so the four-slot recovery
        // histogram (a pinned golden shape) stays stable.
        let mut recoveries = [0u64; 4];
        for r in &result.recoveries {
            match r.action {
                RecoveryAction::ForcedDrain => recoveries[0] += 1,
                RecoveryAction::Killed => recoveries[1] += 1,
                RecoveryAction::LostNotification => recoveries[2] += 1,
                RecoveryAction::LaunchRetry(_) => recoveries[3] += 1,
                RecoveryAction::Migrated { .. } => {}
            }
        }
        ServeReport {
            end_time,
            outcome,
            events,
            latency,
            tenants,
            escalations: result.escalations,
            recoveries,
            runtime_errors: result.errors.len() as u64,
            faults_fired: result.faults_fired,
            leftover,
            devices,
            migrations: result.migrations,
            device_events: result.device_events.len() as u64,
            summary,
        }
    }
}

impl World for ServeWorld {
    type Event = ServeEvent;

    fn handle(
        &mut self,
        now: SimTime,
        event: ServeEvent,
        sched: &mut flep_sim_core::Scheduler<'_, ServeEvent>,
    ) {
        let eligible = match event {
            ServeEvent::Arrival { tenant } => self.on_arrival(now, tenant, sched),
            ServeEvent::Sys(e) => {
                self.cluster.dispatch_to(now, e, &mut |at, e| {
                    sched.schedule_at(at, ServeEvent::Sys(e))
                });
                false
            }
        };
        // After a pass every tenant has a batch in flight or an empty
        // queue. Only a settled batch or an arrival that makes its tenant
        // eligible can change that, so any other event would find nothing
        // to dispatch and is skipped; the expiry such a pass would do is
        // done lazily (see `last_now`). A pass settles completions and
        // failures, then dispatches; a synchronously failing submission
        // produces a new failure entry, so it iterates to fixpoint
        // (terminates: every round consumes queued requests).
        if eligible || self.cluster.needs_drain() {
            loop {
                self.reap();
                if !self.try_dispatch(now) {
                    break;
                }
            }
            self.cluster
                .for_each_pending(|at, e| sched.schedule_at(at, ServeEvent::Sys(e)));
        }
        self.last_now = now;
    }
}

/// How the serving run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// Event queue drained: every admitted request was settled.
    Drained,
    /// The event budget ran out first.
    BudgetExhausted,
}

impl ServeOutcome {
    /// Short stable name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ServeOutcome::Drained => "drained",
            ServeOutcome::BudgetExhausted => "budget-exhausted",
        }
    }
}

/// Per-tenant serving results.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Served model.
    pub model: ModelId,
    /// Scheduling priority.
    pub priority: u32,
    /// The request ledger.
    pub stats: TenantStats,
    /// Completed-request latency percentiles (`None` if nothing
    /// completed).
    pub latency: Option<Percentiles>,
    /// Requests still queued when the run ended (0 unless the budget ran
    /// out).
    pub queued_at_end: u64,
    /// Requests stranded inside an in-flight batch when the run ended
    /// (0 unless the budget ran out).
    pub inflight_at_end: u64,
}

impl TenantReport {
    /// True when the request ledger balances: every offered request is
    /// accounted for exactly once, and completions split exactly into
    /// goodput and SLO misses.
    #[must_use]
    pub fn reconciles(&self) -> bool {
        let s = &self.stats;
        s.offered == s.admitted + s.dropped_past_deadline + s.dropped_queue_full + s.shed
            && s.admitted
                == s.completed + s.expired + s.failed + self.queued_at_end + self.inflight_at_end
            && s.completed == s.goodput + s.slo_miss
    }
}

impl ToJson for TenantReport {
    fn to_json(&self) -> JsonValue {
        let s = &self.stats;
        let (p50, p99, p999) = tail_triple_ns(self.latency);
        let mut fields = vec![
            ("tenant", JsonValue::Str(self.name.clone())),
            ("model", self.model.to_json()),
            ("priority", JsonValue::UInt(u64::from(self.priority))),
            ("offered", JsonValue::UInt(s.offered)),
            ("admitted", JsonValue::UInt(s.admitted)),
            (
                "dropped_past_deadline",
                JsonValue::UInt(s.dropped_past_deadline),
            ),
            ("dropped_queue_full", JsonValue::UInt(s.dropped_queue_full)),
            ("expired", JsonValue::UInt(s.expired)),
            ("completed", JsonValue::UInt(s.completed)),
            ("goodput", JsonValue::UInt(s.goodput)),
            ("slo_miss", JsonValue::UInt(s.slo_miss)),
            ("failed", JsonValue::UInt(s.failed)),
            ("batches", JsonValue::UInt(s.batches)),
            ("p50_ns", JsonValue::UInt(p50)),
            ("p99_ns", JsonValue::UInt(p99)),
            ("p999_ns", JsonValue::UInt(p999)),
        ];
        // Brownout telemetry appears only when something was actually
        // shed, so pre-brownout golden traces stay byte-identical.
        if s.shed > 0 {
            fields.push(("shed", JsonValue::UInt(s.shed)));
        }
        JsonValue::object(fields)
    }
}

/// Whole-run serving results.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// When the last event fired.
    pub end_time: SimTime,
    /// How the run ended.
    pub outcome: ServeOutcome,
    /// Events dispatched by the discrete-event engine (the budget
    /// currency).
    pub events: u64,
    /// Latency percentiles over every completed request, all tenants
    /// pooled (`None` if nothing completed).
    pub latency: Option<Percentiles>,
    /// Per-tenant ledgers, in config order.
    pub tenants: Vec<TenantReport>,
    /// Preemption-drain outcomes by escalation level `[flag, forced
    /// drain, kill]` (from the runtime).
    pub escalations: [u64; 3],
    /// Watchdog recoveries by kind `[forced-drain, killed,
    /// lost-notification, launch-retry]`.
    pub recoveries: [u64; 4],
    /// Structured runtime errors observed.
    pub runtime_errors: u64,
    /// Faults the device's injection plan fired.
    pub faults_fired: u64,
    /// Requests stranded (queued or in flight) at the end; 0 on a
    /// drained run.
    pub leftover: u64,
    /// Devices behind the frontend.
    pub devices: u32,
    /// Batches migrated to a surviving device after a device loss.
    pub migrations: u64,
    /// Device lifecycle events recorded (faults, restores, drains).
    pub device_events: u64,
    /// Structured recovery tally (watchdog actions, migrations, breaker
    /// quarantines/probes/readmissions, brownout sheds) — the shared
    /// [`RecoverySummary`] counters, empty on a clean run.
    pub summary: RecoverySummary,
}

impl ServeReport {
    /// Sums a counter over tenants.
    fn total(&self, f: impl Fn(&TenantStats) -> u64) -> u64 {
        self.tenants.iter().map(|t| f(&t.stats)).sum()
    }

    /// Total goodput (requests completed within deadline).
    #[must_use]
    pub fn goodput(&self) -> u64 {
        self.total(|s| s.goodput)
    }

    /// Total offered requests.
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.total(|s| s.offered)
    }

    /// True when every tenant's ledger balances.
    #[must_use]
    pub fn reconciles(&self) -> bool {
        self.tenants.iter().all(TenantReport::reconciles)
    }
}

impl ToJson for ServeReport {
    fn to_json(&self) -> JsonValue {
        let (p50, p99, p999) = tail_triple_ns(self.latency);
        let mut fields = vec![
            ("end_time_ns", JsonValue::UInt(self.end_time.as_ns())),
            ("outcome", JsonValue::Str(self.outcome.name().to_string())),
            ("events", JsonValue::UInt(self.events)),
            ("offered", JsonValue::UInt(self.offered())),
            ("goodput", JsonValue::UInt(self.goodput())),
            ("p50_ns", JsonValue::UInt(p50)),
            ("p99_ns", JsonValue::UInt(p99)),
            ("p999_ns", JsonValue::UInt(p999)),
            (
                "escalations",
                JsonValue::array(self.escalations.iter().map(|&e| JsonValue::UInt(e))),
            ),
            (
                "recoveries",
                JsonValue::array(self.recoveries.iter().map(|&e| JsonValue::UInt(e))),
            ),
            ("runtime_errors", JsonValue::UInt(self.runtime_errors)),
            ("faults_fired", JsonValue::UInt(self.faults_fired)),
            ("leftover", JsonValue::UInt(self.leftover)),
            (
                "tenants",
                JsonValue::array(self.tenants.iter().map(ToJson::to_json)),
            ),
        ];
        // Cluster telemetry appears only when the run actually used the
        // cluster dimension (multiple devices or device faults), so
        // single-device golden traces stay byte-identical.
        if self.devices > 1 || self.migrations > 0 || self.device_events > 0 {
            fields.push(("devices", JsonValue::UInt(u64::from(self.devices))));
            fields.push(("migrations", JsonValue::UInt(self.migrations)));
            fields.push(("device_events", JsonValue::UInt(self.device_events)));
        }
        // The structured recovery summary renders only when something
        // actually happened (it serializes nonzero counters only), so
        // clean golden traces stay byte-identical.
        if !self.summary.is_empty() {
            fields.push(("recovery_summary", self.summary.to_json()));
        }
        JsonValue::object(fields)
    }
}

/// Runs one serving experiment to completion (or budget exhaustion) and
/// returns the report.
///
/// The frontend drives one flat [`Simulation`]: arrivals, frontend
/// timers and every device's cluster events share one `(time, seq)`
/// queue.
#[must_use]
pub fn run_serve(cfg: &ServeConfig) -> ServeReport {
    let (world, initial) = ServeWorld::new(cfg);
    let mut sim = Simulation::new(world);
    for (at, ev) in initial {
        sim.schedule_at(at, ev);
    }
    let (end, outcome) = match sim.run_with_budget(cfg.event_budget) {
        RunOutcome::Completed(t) => (t, ServeOutcome::Drained),
        RunOutcome::BudgetExhausted { now, .. } => (now, ServeOutcome::BudgetExhausted),
    };
    let events = sim.dispatched();
    sim.into_world().into_report(end, outcome, events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenant_cfg(seed: u64) -> ServeConfig {
        ServeConfig::new(
            seed,
            SimTime::from_ms(200),
            vec![
                TenantSpec::new(
                    "dlrm",
                    ModelId::Dlrm,
                    2,
                    ArrivalProcess::Poisson { rate_per_s: 2000.0 },
                ),
                TenantSpec::new(
                    "gpt2-gen",
                    ModelId::Gpt2,
                    0,
                    ArrivalProcess::Poisson { rate_per_s: 120.0 },
                ),
            ],
        )
    }

    #[test]
    fn smoke_run_drains_and_reconciles() {
        let r = run_serve(&two_tenant_cfg(42));
        assert_eq!(r.outcome, ServeOutcome::Drained);
        assert_eq!(r.leftover, 0);
        assert!(r.reconciles(), "ledger must balance: {r:?}");
        assert!(r.goodput() > 0);
        assert!(r.offered() >= 400, "200ms at >2000/s offered");
        for t in &r.tenants {
            assert!(t.stats.batches > 0, "{} never dispatched", t.name);
        }
    }

    #[test]
    fn same_seed_renders_identical_reports() {
        let a = run_serve(&two_tenant_cfg(7)).to_json().render();
        let b = run_serve(&two_tenant_cfg(7)).to_json().render();
        let c = run_serve(&two_tenant_cfg(8)).to_json().render();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn tight_slo_tenant_preempts_long_batches() {
        // gpt2 batches run ~900us per task; dlrm arrivals every ~500us
        // with priority 2 must preempt them, so the runtime's drain
        // ladder fires and dlrm p99 stays well under its 5ms SLO.
        let r = run_serve(&two_tenant_cfg(42));
        let drains: u64 = r.escalations.iter().sum();
        assert!(drains > 0, "no preemption drains recorded: {r:?}");
        let dlrm = &r.tenants[0];
        let p99 = dlrm.latency.expect("dlrm completed requests").p99_ns;
        assert!(
            p99 < SimTime::from_ms(5).as_ns(),
            "dlrm p99 {p99}ns blew its SLO"
        );
    }

    #[test]
    fn faulty_device_still_reconciles() {
        let mut cfg = two_tenant_cfg(42);
        cfg.faults = Some(
            flep_gpu_sim::FaultConfig::quiet(99)
                .with_launch_reject(0.05)
                .with_signal_drop(0.05),
        );
        let r = run_serve(&cfg);
        assert_eq!(r.outcome, ServeOutcome::Drained);
        assert!(r.reconciles(), "faulty ledger must still balance: {r:?}");
        assert!(r.faults_fired > 0, "fault plan never fired");
    }

    /// One gpt2 tenant (900 us per request) with room for two queued
    /// requests and a 100 us SLO, fed by hand-scheduled arrivals: the
    /// horizon sits before the arrival process's first draw, so it
    /// schedules nothing of its own. Steps the world until `stop_at` (or
    /// until it drains) and builds the report there.
    fn lazy_expiry_run(arrivals_us: &[u64], stop_at: Option<SimTime>) -> ServeReport {
        let mut spec = TenantSpec::new(
            "gpt2",
            ModelId::Gpt2,
            0,
            ArrivalProcess::Poisson { rate_per_s: 1.0 },
        );
        spec.queue_cap = 2;
        spec.slo = Some(SimTime::from_us(100));
        let cfg = ServeConfig::new(5, SimTime::from_ns(1), vec![spec]);
        let (world, initial) = ServeWorld::new(&cfg);
        let mut sim = Simulation::new(world);
        for (at, ev) in initial {
            sim.schedule_at(at, ev);
        }
        for &us in arrivals_us {
            sim.schedule_at(SimTime::from_us(us), ServeEvent::Arrival { tenant: 0 });
        }
        let mut outcome = ServeOutcome::Drained;
        loop {
            if stop_at.is_some_and(|t| sim.now() >= t) {
                outcome = ServeOutcome::BudgetExhausted;
                break;
            }
            if sim.step() != flep_sim_core::StepOutcome::Dispatched {
                break;
            }
        }
        let (now, events) = (sim.now(), sim.dispatched());
        sim.into_world().into_report(now, outcome, events)
    }

    /// Expiry runs lazily, yet admission still sees each queue as an
    /// expiry pass after every event would have left it: requests that
    /// missed their deadline before the previous event no longer hold
    /// queue slots, while those that missed it only since still do.
    #[test]
    fn lazy_expiry_keeps_admission_exact() {
        // 0: dispatched at once, a ~900 us batch. 10 and 20: queued
        // (deadlines 110 and 120 us), the queue is full. 105: full, both
        // live, dropped. 150: both expired, but only after the previous
        // event (105), so the queue still counted them: dropped. 250: the
        // previous event (150) is past both deadlines: admitted, and
        // expires itself (deadline 350) before the batch settles.
        let arrivals = [0, 10, 20, 105, 150, 250];
        let r = lazy_expiry_run(&arrivals, None);
        assert_eq!(r.outcome, ServeOutcome::Drained);
        let t = &r.tenants[0];
        let s = &t.stats;
        assert_eq!(s.offered, 6);
        assert_eq!(s.admitted, 4, "{s:?}");
        assert_eq!(s.dropped_queue_full, 2, "{s:?}");
        assert_eq!(s.expired, 3, "{s:?}");
        assert_eq!((s.completed, s.slo_miss, s.goodput), (1, 1, 0), "{s:?}");
        assert_eq!(s.batches, 1);
        assert_eq!(r.leftover, 0);
        assert!(r.reconciles(), "{r:?}");

        // Cut off mid-batch, after the 250 us request's deadline but with
        // no dispatch pass since: the report still counts it expired, not
        // queued.
        let r = lazy_expiry_run(&arrivals, Some(SimTime::from_us(400)));
        assert_eq!(r.outcome, ServeOutcome::BudgetExhausted);
        let t = &r.tenants[0];
        assert_eq!(t.stats.expired, 3, "{:?}", t.stats);
        assert_eq!((t.queued_at_end, t.inflight_at_end), (0, 1));
        assert_eq!(r.leftover, 1);
        assert!(r.reconciles(), "{r:?}");
    }

    #[test]
    fn budget_abort_reports_leftover() {
        let mut cfg = two_tenant_cfg(42);
        cfg.event_budget = 50;
        let r = run_serve(&cfg);
        assert_eq!(r.outcome, ServeOutcome::BudgetExhausted);
        assert!(r.reconciles(), "aborted ledger must still balance: {r:?}");
    }
}
