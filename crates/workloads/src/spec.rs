//! Benchmark specifications calibrated against Table 1 of the paper.
//!
//! Each benchmark carries, per input class, a task count and a per-task
//! base duration chosen so that the *standalone* execution time on the
//! simulated K40 (15 SMs, 120 active 256-thread CTAs) matches the paper's
//! Table 1 within a fraction of a percent. The amortizing factors in
//! [`Benchmark::table1_amortize`] are the paper's; the offline tuner in
//! `flep-compile` re-derives them from the <4% overhead rule (§4.1), and a
//! test asserts the two agree.

use flep_gpu_sim::{GridShape, LaunchDesc, ResourceUsage, TaskCost};
use flep_perfmodel::KernelFeatures;
use flep_sim_core::{SimRng, SimTime};

/// The eight evaluation benchmarks (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BenchmarkId {
    /// Rodinia CFD: finite volume solver.
    Cfd,
    /// Rodinia NN: nearest neighbor.
    Nn,
    /// Rodinia PF (Pathfinder): dynamic programming.
    Pf,
    /// Rodinia PL (Particlefilter): Bayesian framework.
    Pl,
    /// SHOC MD: molecular dynamics.
    Md,
    /// SHOC SPMV: sparse matrix-vector multiply.
    Spmv,
    /// CUDA SDK MM: dense matrix multiplication.
    Mm,
    /// CUDA SDK VA: vector addition.
    Va,
}

impl BenchmarkId {
    /// All benchmarks in Table 1 order.
    pub const ALL: [BenchmarkId; 8] = [
        BenchmarkId::Cfd,
        BenchmarkId::Nn,
        BenchmarkId::Pf,
        BenchmarkId::Pl,
        BenchmarkId::Md,
        BenchmarkId::Spmv,
        BenchmarkId::Mm,
        BenchmarkId::Va,
    ];

    /// The short name used in the paper's figures.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            BenchmarkId::Cfd => "CFD",
            BenchmarkId::Nn => "NN",
            BenchmarkId::Pf => "PF",
            BenchmarkId::Pl => "PL",
            BenchmarkId::Md => "MD",
            BenchmarkId::Spmv => "SPMV",
            BenchmarkId::Mm => "MM",
            BenchmarkId::Va => "VA",
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl flep_sim_core::json::ToJson for BenchmarkId {
    fn to_json(&self) -> flep_sim_core::json::JsonValue {
        flep_sim_core::json::JsonValue::Str(self.name().to_string())
    }
}

/// The three input classes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputClass {
    /// Needs all SMs; thousands of CTAs; long running.
    Large,
    /// Needs all SMs; short running.
    Small,
    /// Fewer CTAs than one SM-wave; used for spatial preemption (§6.1).
    Trivial,
}

impl InputClass {
    /// All classes in Table 1 column order.
    pub const ALL: [InputClass; 3] = [InputClass::Large, InputClass::Small, InputClass::Trivial];
}

/// Calibrated workload shape for one (benchmark, input class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputProfile {
    /// Number of tasks (original-kernel CTAs).
    pub tasks: u64,
    /// Mean per-task duration at full single-kernel occupancy.
    pub task_base: SimTime,
    /// Problem-size feature used by the performance model (element count).
    pub input_size: u64,
}

/// One benchmark's full specification.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// Which benchmark this is.
    pub id: BenchmarkId,
    /// Originating suite, as in Table 1.
    pub suite: &'static str,
    /// One-line description, as in Table 1.
    pub description: &'static str,
    /// Lines of code in the kernel, as in Table 1.
    pub kernel_loc: u32,
    /// Per-CTA resource usage.
    pub resources: ResourceUsage,
    /// Contention-model slope (memory intensity); see
    /// `flep_gpu_sim::GpuDevice::effective_contention_factor`.
    pub mem_intensity: f64,
    /// Input-dependence of runtime behaviour, driving both per-invocation
    /// duration variability and the Fig. 7 prediction error. Regular
    /// kernels (NN, MM, VA) are low; SPMV/MD are high (§6.2).
    pub irregularity: f64,
    /// The amortizing factor reported in Table 1.
    pub table1_amortize: u32,
    /// Fixed per-task cost component, in nanoseconds. Per-task time is
    /// modelled as `alpha + (input_size / tasks)` ns (one element costs
    /// one nanosecond), which makes invocation duration exactly linear in
    /// the (grid size, input size) features the §4.2 model uses.
    pub alpha_ns: u64,
    profiles: [InputProfile; 3],
}

/// Per-task duration noise as a fraction of the invocation-level
/// irregularity: tasks within one run vary less than whole runs across
/// inputs do.
const TASK_NOISE_FRACTION: f64 = 0.3;

impl Benchmark {
    /// Looks up a benchmark spec.
    #[must_use]
    pub fn get(id: BenchmarkId) -> Benchmark {
        // Calibration: standalone time = ceil(tasks / 120) * task_base for
        // 120-CTA device capacity. Comments give the Table 1 target.
        let (suite, description, loc, amortize, mem, irr, alpha_ns, profiles) = match id {
            BenchmarkId::Cfd => (
                "Rodinia",
                "finite volume solver",
                130,
                1,
                0.6,
                0.10,
                26_000,
                [
                    // 11106us: 120 waves x 92.55us
                    profile(14_400, 92_550, 958_320_000),
                    // 521us: 10 waves x 52.1us
                    profile(1_200, 52_100, 31_320_000),
                    // 81us measured: one 40-CTA wave, task scaled up by the
                    // contention relief of 2-3 CTAs/SM (see the spec test)
                    profile(40, 99_400, 2_936_000),
                ],
            ),
            BenchmarkId::Nn => (
                "Rodinia",
                "nearest neighbor",
                10,
                100,
                1.6,
                0.034,
                1_315,
                [
                    // 15775us: 5998 waves x 2.63us
                    profile(719_760, 2_630, 946_484_400),
                    // 728us: 277 waves x 2.63us
                    profile(33_240, 2_630, 43_710_600),
                    // 55us: one 16-CTA wave (2 SMs) for Fig. 16
                    profile(16, 101_400, 1_601_360),
                ],
            ),
            BenchmarkId::Pf => (
                "Rodinia",
                "dynamic programming",
                81,
                150,
                0.5,
                0.09,
                1_200,
                [
                    // 7364us: 3068 waves x 2.4us
                    profile(368_160, 2_400, 441_792_000),
                    // 811us: 338 waves x 2.4us
                    profile(40_560, 2_400, 48_672_000),
                    // 57us
                    profile(40, 68_000, 2_672_000),
                ],
            ),
            BenchmarkId::Pl => (
                "Rodinia",
                "Bayesian framework",
                24,
                100,
                0.4,
                0.11,
                1_350,
                [
                    // 5419us: 2007 waves x 2.7us
                    profile(240_840, 2_700, 325_134_000),
                    // 952us: 353 waves x 2.7us -> 953.1us
                    profile(42_360, 2_700, 57_186_000),
                    // 83us
                    profile(40, 94_400, 3_722_000),
                ],
            ),
            BenchmarkId::Md => (
                "SHOC",
                "molecular dynamics",
                61,
                1,
                1.1,
                0.13,
                45_000,
                [
                    // 15905us: 120 waves x 132.54us -> 15904.8us
                    profile(14_400, 132_540, 1_260_576_000),
                    // 938us: 10 waves x 93.8us
                    profile(1_200, 93_800, 58_560_000),
                    // 90us: one 16-CTA wave (2 SMs) for Fig. 16
                    profile(16, 144_300, 1_588_800),
                ],
            ),
            BenchmarkId::Spmv => (
                "SHOC",
                "sparse matrix vector multi.",
                23,
                2,
                1.0,
                0.15,
                14_975,
                [
                    // 5840us: 195 waves x 29.95us -> 5840.25us
                    profile(23_400, 29_950, 350_415_000),
                    // 484us: 16 waves x 30.25us
                    profile(1_920, 30_250, 29_328_000),
                    // 68us
                    profile(40, 90_100, 3_005_000),
                ],
            ),
            BenchmarkId::Mm => (
                "CUDA SDK",
                "dense matrix multiplication",
                74,
                2,
                0.3,
                0.043,
                14_990,
                [
                    // 2579us: 86 waves x 29.99us -> 2579.1us
                    profile(10_320, 29_990, 154_800_000),
                    // 1499us: 50 waves x 29.98us
                    profile(6_000, 29_980, 89_940_000),
                    // 73us
                    profile(40, 83_000, 2_720_400),
                ],
            ),
            BenchmarkId::Va => (
                "CUDA SDK",
                "vector addition",
                6,
                200,
                1.2,
                0.035,
                1_130,
                [
                    // 30634us: 13555 waves x 2.26us -> 30634.3us
                    profile(1_626_600, 2_260, 1_838_058_000),
                    // 720us: 319 waves x 2.26us -> 720.9us
                    profile(38_280, 2_260, 43_256_400),
                    // 49us
                    profile(40, 72_700, 2_862_800),
                ],
            ),
        };
        // MM uses a 16x16 shared-memory tile pair (2 KiB); the rest use no
        // static shared memory. All use 256-thread CTAs with 32 regs/thread
        // => 8 CTAs/SM, i.e. the paper's "120 active CTAs".
        let resources = ResourceUsage {
            threads_per_cta: 256,
            regs_per_thread: 32,
            smem_per_cta: if id == BenchmarkId::Mm { 2048 } else { 0 },
        };
        Benchmark {
            id,
            suite,
            description,
            kernel_loc: loc,
            resources,
            mem_intensity: mem,
            irregularity: irr,
            table1_amortize: amortize,
            alpha_ns,
            profiles,
        }
    }

    /// All eight benchmark specs in Table 1 order.
    #[must_use]
    pub fn all() -> Vec<Benchmark> {
        BenchmarkId::ALL
            .iter()
            .map(|&id| Benchmark::get(id))
            .collect()
    }

    /// The calibrated profile for an input class.
    #[must_use]
    pub fn profile(&self, class: InputClass) -> InputProfile {
        match class {
            InputClass::Large => self.profiles[0],
            InputClass::Small => self.profiles[1],
            InputClass::Trivial => self.profiles[2],
        }
    }

    /// The expected standalone execution time of the *original* kernel:
    /// `ceil(tasks / capacity) * task_base` (kernel-body time, excluding
    /// launch overhead). Matches the corresponding Table 1 entry.
    #[must_use]
    pub fn expected_standalone(&self, class: InputClass, capacity: u64) -> SimTime {
        let p = self.profile(class);
        let waves = p.tasks.div_ceil(capacity.max(1));
        p.task_base * waves
    }

    /// The contention factor the *slowest* CTA of a sub-capacity grid
    /// sees when `tasks` CTAs spread across `num_sms` SMs (least-loaded
    /// placement): the paper's trivial-input standalone times include this
    /// relief, so trivial calibration targets `task_base * factor`.
    #[must_use]
    pub fn spread_contention_factor(&self, tasks: u64, num_sms: u32, threads_per_sm: u32) -> f64 {
        let per_sm = tasks.div_ceil(u64::from(num_sms.max(1)));
        let load =
            per_sm as f64 * f64::from(self.resources.threads_per_cta) / f64::from(threads_per_sm);
        let c = self.mem_intensity;
        // Normalized to full own-kernel occupancy (load 1.0 at 8x256/2048).
        (1.0 + c * load.min(1.0)) / (1.0 + c)
    }

    /// The per-task cost model for an input class.
    #[must_use]
    pub fn task_cost(&self, class: InputClass) -> TaskCost {
        TaskCost {
            base: self.profile(class).task_base,
            rel_noise: self.irregularity * TASK_NOISE_FRACTION,
        }
    }

    /// Launch descriptor for the *original* (untransformed) kernel.
    #[must_use]
    pub fn original_desc(&self, class: InputClass) -> LaunchDesc {
        let p = self.profile(class);
        LaunchDesc::new(
            format!("{}_{:?}", self.id.name(), class),
            GridShape::Original { ctas: p.tasks },
            self.task_cost(class),
        )
        .with_resources(self.resources)
        .with_mem_intensity(self.mem_intensity)
    }

    /// Launch descriptor for the FLEP persistent-threads form, using the
    /// given amortizing factor (pass [`Benchmark::table1_amortize`] for the
    /// paper's configuration).
    #[must_use]
    pub fn persistent_desc(&self, class: InputClass, amortize: u32) -> LaunchDesc {
        let p = self.profile(class);
        LaunchDesc::new(
            format!("{}_{:?}_flep", self.id.name(), class),
            GridShape::Persistent {
                total_tasks: p.tasks,
                amortize,
            },
            self.task_cost(class),
        )
        .with_resources(self.resources)
        .with_mem_intensity(self.mem_intensity)
    }

    /// The §4.2 model features of an invocation on a given input class.
    #[must_use]
    pub fn features(&self, class: InputClass) -> KernelFeatures {
        let p = self.profile(class);
        KernelFeatures {
            grid_size: p.tasks as f64,
            cta_size: f64::from(self.resources.threads_per_cta),
            input_size: p.input_size as f64,
            smem_size: f64::from(self.resources.smem_per_cta),
        }
    }

    /// Samples one random invocation for model training (§4.2 trains on
    /// "100 randomly generated data inputs"): a random grid scale in
    /// `[0.02, 1.5]` of the large input and a random elements-per-task
    /// density spanning the three calibrated input classes, with
    /// invocation-level duration noise proportional to the benchmark's
    /// irregularity.
    ///
    /// Returns the feature vector and the "measured" duration.
    pub fn random_invocation(&self, rng: &mut SimRng) -> (KernelFeatures, SimTime) {
        // Log-uniform grid scale: real input sizes span orders of
        // magnitude (the small inputs are 2-40x below the large ones), so
        // the training distribution must cover that range on both ends.
        let scale = (rng.uniform_f64((0.02f64).ln(), (1.5f64).ln())).exp();
        let large = self.profile(InputClass::Large);
        let tasks = ((large.tasks as f64 * scale) as u64).max(1);
        // Elements per task across the calibrated classes.
        let ratios: Vec<f64> = InputClass::ALL
            .iter()
            .map(|&c| {
                let p = self.profile(c);
                p.input_size as f64 / p.tasks as f64
            })
            .collect();
        let r_lo = ratios.iter().copied().fold(f64::INFINITY, f64::min) * 0.8;
        let r_hi = ratios.iter().copied().fold(0.0_f64, f64::max) * 1.2;
        let r = rng.uniform_f64(r_lo, r_hi);
        let input_size = (tasks as f64 * r) as u64;
        let features = KernelFeatures {
            grid_size: tasks as f64,
            cta_size: f64::from(self.resources.threads_per_cta),
            input_size: input_size as f64,
            smem_size: f64::from(self.resources.smem_per_cta),
        };
        // Smooth wave model: duration = tasks/capacity * (alpha + r) ns.
        let task_ns = self.alpha_ns as f64 + r;
        let duration_ns = tasks as f64 / 120.0 * task_ns;
        let duration =
            SimTime::from_ns(duration_ns.round() as u64).scale(rng.noise_factor(self.irregularity));
        (features, duration)
    }

    /// The "measured" duration of a run on a named input class, with fresh
    /// invocation-level noise: what a real experiment would observe.
    pub fn observed_duration(&self, class: InputClass, rng: &mut SimRng) -> SimTime {
        self.expected_standalone(class, 120)
            .scale(rng.noise_factor(self.irregularity))
    }
}

fn profile(tasks: u64, task_ns: u64, input_size: u64) -> InputProfile {
    InputProfile {
        tasks,
        task_base: SimTime::from_ns(task_ns),
        input_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1's execution-time columns, in microseconds.
    const TABLE1_US: [(BenchmarkId, f64, f64, f64); 8] = [
        (BenchmarkId::Cfd, 11106.0, 521.0, 81.0),
        (BenchmarkId::Nn, 15775.0, 728.0, 55.0),
        (BenchmarkId::Pf, 7364.0, 811.0, 57.0),
        (BenchmarkId::Pl, 5419.0, 952.0, 83.0),
        (BenchmarkId::Md, 15905.0, 938.0, 90.0),
        (BenchmarkId::Spmv, 5840.0, 484.0, 68.0),
        (BenchmarkId::Mm, 2579.0, 1499.0, 73.0),
        (BenchmarkId::Va, 30634.0, 720.0, 49.0),
    ];

    #[test]
    fn standalone_times_match_table1_within_half_percent() {
        for &(id, large, small, trivial) in &TABLE1_US {
            let b = Benchmark::get(id);
            for (class, target) in [
                (InputClass::Large, large),
                (InputClass::Small, small),
                (InputClass::Trivial, trivial),
            ] {
                // Trivial grids underfill the device, so the measured time
                // includes contention relief; large/small run at full
                // occupancy (factor 1).
                let factor = if class == InputClass::Trivial {
                    b.spread_contention_factor(b.profile(class).tasks, 15, 2048)
                } else {
                    1.0
                };
                let got = b.expected_standalone(class, 120).as_us() * factor;
                let err = (got - target).abs() / target;
                // Trivial grids additionally see a max-of-N noise bias in
                // measured makespans (compensated empirically in the task
                // bases), so the analytic check is looser there; the
                // measured check lives in the table1 experiment and the
                // calibration integration test.
                let tol = if class == InputClass::Trivial {
                    0.10
                } else {
                    0.005
                };
                assert!(
                    err < tol,
                    "{id} {class:?}: calibrated {got:.1}us vs Table 1 {target}us ({:.2}%)",
                    err * 100.0
                );
            }
        }
    }

    #[test]
    fn amortizing_factors_match_table1() {
        let expected = [1u32, 100, 150, 100, 1, 2, 2, 200];
        for (id, exp) in BenchmarkId::ALL.iter().zip(expected) {
            assert_eq!(Benchmark::get(*id).table1_amortize, exp, "{id}");
        }
    }

    #[test]
    fn large_and_small_inputs_need_all_sms() {
        for b in Benchmark::all() {
            assert!(
                b.profile(InputClass::Large).tasks >= 120,
                "{} large must fill the device",
                b.id
            );
            assert!(
                b.profile(InputClass::Small).tasks >= 120,
                "{} small must fill the device",
                b.id
            );
            assert!(
                b.profile(InputClass::Trivial).tasks < 120,
                "{} trivial must underfill the device",
                b.id
            );
        }
    }

    #[test]
    fn nn_and_md_trivial_need_two_sms() {
        // Fig. 16: "Both NN and MD need two SMs to host all CTAs."
        for id in [BenchmarkId::Nn, BenchmarkId::Md] {
            let b = Benchmark::get(id);
            assert_eq!(b.profile(InputClass::Trivial).tasks, 16, "{id}");
        }
    }

    #[test]
    fn regular_kernels_are_less_irregular_than_sparse_ones() {
        let nn = Benchmark::get(BenchmarkId::Nn).irregularity;
        let mm = Benchmark::get(BenchmarkId::Mm).irregularity;
        let va = Benchmark::get(BenchmarkId::Va).irregularity;
        let spmv = Benchmark::get(BenchmarkId::Spmv).irregularity;
        let md = Benchmark::get(BenchmarkId::Md).irregularity;
        for regular in [nn, mm, va] {
            assert!(regular < spmv && regular < md);
        }
    }

    #[test]
    fn all_benchmarks_have_120_cta_capacity() {
        use flep_gpu_sim::GpuConfig;
        let cfg = GpuConfig::k40();
        for b in Benchmark::all() {
            assert_eq!(
                cfg.device_capacity(&b.resources),
                120,
                "{} must match the paper's 120 active CTAs",
                b.id
            );
        }
    }

    #[test]
    fn descs_are_consistent_with_profiles() {
        let b = Benchmark::get(BenchmarkId::Spmv);
        let d = b.original_desc(InputClass::Small);
        assert_eq!(
            d.shape,
            GridShape::Original {
                ctas: b.profile(InputClass::Small).tasks
            }
        );
        let pd = b.persistent_desc(InputClass::Small, b.table1_amortize);
        assert_eq!(
            pd.shape,
            GridShape::Persistent {
                total_tasks: b.profile(InputClass::Small).tasks,
                amortize: 2
            }
        );
    }

    #[test]
    fn random_invocations_are_deterministic_per_seed() {
        let b = Benchmark::get(BenchmarkId::Cfd);
        let mut r1 = SimRng::seed_from(5);
        let mut r2 = SimRng::seed_from(5);
        assert_eq!(
            b.random_invocation(&mut r1).1,
            b.random_invocation(&mut r2).1
        );
    }

    #[test]
    fn kernel_loc_matches_table1() {
        assert_eq!(Benchmark::get(BenchmarkId::Cfd).kernel_loc, 130);
        assert_eq!(Benchmark::get(BenchmarkId::Va).kernel_loc, 6);
        assert_eq!(Benchmark::get(BenchmarkId::Nn).kernel_loc, 10);
    }
}
