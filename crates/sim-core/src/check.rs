//! `flep-check`: a minimal, fully deterministic property-testing harness.
//!
//! The workspace's property suites used to run on `proptest`; this module
//! replaces the thin slice actually needed with an in-tree harness so the
//! repository builds and tests offline with a bare toolchain:
//!
//! * **Seeded generation** — every case's input is generated from a
//!   [`SimRng`] derived from a fixed root seed, so `cargo test` output is
//!   bit-identical run to run.
//! * **Configurable case count** — [`CheckConfig::cases`] (default 64,
//!   override with `FLEP_CHECK_CASES`). An invalid `FLEP_CHECK_CASES`,
//!   `FLEP_CHECK_SEED` or `FLEP_CHECK_REPRO` warns on stderr and is
//!   ignored; nothing falls back silently.
//! * **Shrinking** — on failure the input is shrunk via the [`Shrink`]
//!   trait, which halves/decrements scalars and prunes collections.
//! * **Reproducible failures** — the panic message names the per-case seed;
//!   re-run just that case with `FLEP_CHECK_REPRO=<seed>`.
//!
//! # Example
//!
//! ```
//! use flep_sim_core::check::{check, CheckConfig};
//! use flep_sim_core::require;
//!
//! check(
//!     "addition_commutes",
//!     CheckConfig::default(),
//!     |rng| (rng.uniform_u64(0, 1000), rng.uniform_u64(0, 1000)),
//!     |&(a, b)| {
//!         require!(a + b == b + a, "{a} + {b} not commutative");
//!         Ok(())
//!     },
//! );
//! ```

use std::fmt::Debug;

use crate::SimRng;

/// The default root seed: fixed so test output is identical across runs.
pub const DEFAULT_SEED: u64 = 0xF1EB_C4EC_0DE5_EED5;

/// The default number of cases per property.
pub const DEFAULT_CASES: u32 = 64;

/// Configuration for one [`check`] run.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Number of passing cases required.
    pub cases: u32,
    /// Root seed all case seeds derive from.
    pub seed: u64,
    /// Upper bound on property evaluations spent shrinking a failure.
    pub max_shrink_steps: u32,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            cases: env_knob("FLEP_CHECK_CASES", parse_cases).unwrap_or(DEFAULT_CASES),
            seed: env_knob("FLEP_CHECK_SEED", parse_root_seed).unwrap_or(DEFAULT_SEED),
            max_shrink_steps: 2_000,
        }
    }
}

impl CheckConfig {
    /// A config with an explicit case count (root seed stays the default).
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        CheckConfig {
            cases,
            ..CheckConfig::default()
        }
    }
}

/// Reads knob `name` through its pure parser: `None` when unset, and also
/// when invalid — after printing the parser's warning line on stderr.
fn env_knob<T>(name: &str, parse: fn(&str) -> Result<T, String>) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    parse(&raw).map_err(|warning| eprintln!("{warning}")).ok()
}

/// Parses a `FLEP_CHECK_CASES` value: the case count, or the exact warning
/// line printed for an invalid value (unparsable, or `0`, which would pass
/// every property vacuously).
///
/// # Errors
///
/// Returns the warning line for an invalid value.
pub fn parse_cases(raw: &str) -> Result<u32, String> {
    match raw.trim().parse::<u32>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "FLEP_CHECK_CASES: invalid value {raw:?} (want an integer >= 1); using {DEFAULT_CASES}"
        )),
    }
}

/// Parses a `FLEP_CHECK_SEED` value (decimal or `0x`-hex): the root seed,
/// or the exact warning line printed for an invalid value.
///
/// # Errors
///
/// Returns the warning line for an invalid value.
pub fn parse_root_seed(raw: &str) -> Result<u64, String> {
    parse_seed(raw).ok_or_else(|| {
        format!(
            "FLEP_CHECK_SEED: invalid value {raw:?} (want a decimal or 0x-hex u64); \
             using {DEFAULT_SEED:#x}"
        )
    })
}

/// Parses a `FLEP_CHECK_REPRO` value (decimal or `0x`-hex): the case seed
/// to replay, or the exact warning line printed for an invalid value —
/// after which the normal suite runs.
///
/// # Errors
///
/// Returns the warning line for an invalid value.
pub fn parse_repro(raw: &str) -> Result<u64, String> {
    parse_seed(raw).ok_or_else(|| {
        format!(
            "FLEP_CHECK_REPRO: invalid value {raw:?} (want a decimal or 0x-hex case seed); \
             running every case"
        )
    })
}

fn parse_seed(v: &str) -> Option<u64> {
    let v = v.trim();
    if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

/// A falsified (or discarded) property case.
///
/// Produced by the [`require!`](crate::require), [`require_eq!`](crate::require_eq) and
/// [`assume!`](crate::assume) macros; rarely constructed by hand.
#[derive(Debug, Clone)]
pub struct Falsified {
    /// Human-readable description of the violated requirement.
    pub message: String,
    pub(crate) discard: bool,
}

impl Falsified {
    /// A genuine property violation.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        Falsified {
            message: message.into(),
            discard: false,
        }
    }

    /// A case that does not meet the property's preconditions and should be
    /// regenerated rather than counted as pass or fail.
    #[must_use]
    pub fn discard() -> Self {
        Falsified {
            message: "case discarded by assume!".into(),
            discard: true,
        }
    }
}

/// Result type of a property body.
pub type CaseResult = Result<(), Falsified>;

/// Asserts a condition inside a property body; on failure the surrounding
/// property returns a [`Falsified`](crate::check::Falsified) carrying the message.
#[macro_export]
macro_rules! require {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::check::Falsified::new(format!(
                "requirement failed: `{}` at {}:{}",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::check::Falsified::new(format!(
                "requirement failed: `{}` — {} (at {}:{})",
                stringify!($cond),
                format!($($fmt)+),
                file!(),
                line!()
            )));
        }
    };
}

/// Asserts equality inside a property body, reporting both values on failure.
#[macro_export]
macro_rules! require_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err($crate::check::Falsified::new(format!(
                "requirement failed: `{} == {}`\n  left:  {:?}\n  right: {:?}\n  (at {}:{})",
                stringify!($left),
                stringify!($right),
                l,
                r,
                file!(),
                line!()
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err($crate::check::Falsified::new(format!(
                "requirement failed: `{} == {}` — {}\n  left:  {:?}\n  right: {:?}\n  (at {}:{})",
                stringify!($left),
                stringify!($right),
                format!($($fmt)+),
                l,
                r,
                file!(),
                line!()
            )));
        }
    }};
}

/// Discards the current case when a precondition does not hold; the harness
/// generates a replacement case instead of counting a pass.
#[macro_export]
macro_rules! assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::check::Falsified::discard());
        }
    };
}

/// Types that can propose strictly-simpler versions of themselves.
///
/// The default implementation proposes nothing, which is always sound: the
/// harness then reports the originally generated counterexample. Scalars
/// shrink toward zero by halving and decrementing; collections shrink by
/// dropping chunks and elements, then shrinking elements in place.
pub trait Shrink: Sized {
    /// Candidate simplifications, simplest first. Every candidate must be
    /// different from `self` and "smaller" under some well-founded order so
    /// shrinking terminates.
    fn shrink(&self) -> Vec<Self> {
        Vec::new()
    }
}

macro_rules! shrink_unsigned {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink(&self) -> Vec<Self> {
                let mut out = Vec::new();
                for c in [0, *self / 2, self.saturating_sub(1)] {
                    if c != *self && !out.contains(&c) {
                        out.push(c);
                    }
                }
                out
            }
        }
    )*};
}

shrink_unsigned!(u8, u16, u32, u64, usize);

macro_rules! shrink_signed {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink(&self) -> Vec<Self> {
                let mut out = Vec::new();
                for c in [0, *self / 2, *self - self.signum()] {
                    if c != *self && !out.contains(&c) {
                        out.push(c);
                    }
                }
                out
            }
        }
    )*};
}

shrink_signed!(i8, i16, i32, i64, isize);

impl Shrink for f64 {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for c in [0.0, *self / 2.0, self.trunc()] {
            if c.is_finite() && c != *self && !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }
}

impl Shrink for bool {
    fn shrink(&self) -> Vec<Self> {
        if *self {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl Shrink for String {
    fn shrink(&self) -> Vec<Self> {
        let n = self.chars().count();
        if n == 0 {
            return Vec::new();
        }
        let half: String = self.chars().take(n / 2).collect();
        let minus_one: String = self.chars().take(n - 1).collect();
        let mut out = vec![half];
        if !out.contains(&minus_one) {
            out.push(minus_one);
        }
        out
    }
}

impl<T: Shrink + Clone> Shrink for Option<T> {
    fn shrink(&self) -> Vec<Self> {
        match self {
            None => Vec::new(),
            Some(v) => {
                let mut out = vec![None];
                out.extend(v.shrink().into_iter().map(Some));
                out
            }
        }
    }
}

impl<T: Shrink + Clone + PartialEq> Shrink for Vec<T> {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        let n = self.len();
        if n == 0 {
            return out;
        }
        // Structural shrinks first: halves, then single-element removals.
        out.push(self[..n / 2].to_vec());
        out.push(self[n / 2..].to_vec());
        for i in 0..n {
            let mut v = self.clone();
            v.remove(i);
            out.push(v);
        }
        // Element-wise shrinks, one element at a time.
        for i in 0..n {
            for cand in self[i].shrink() {
                let mut v = self.clone();
                v[i] = cand;
                out.push(v);
            }
        }
        out.retain(|v| v != self);
        out
    }
}

macro_rules! shrink_tuple {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Shrink + Clone),+> Shrink for ($($name,)+) {
            fn shrink(&self) -> Vec<Self> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink() {
                        let mut t = self.clone();
                        t.$idx = cand;
                        out.push(t);
                    }
                )+
                out
            }
        }
    )+};
}

shrink_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5),
);

/// Derives the seed of case `i` from the root seed (SplitMix64-style mix so
/// neighbouring cases get unrelated streams).
#[must_use]
pub fn case_seed(root: u64, index: u64) -> u64 {
    let mut z = root
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `prop` against `cfg.cases` generated inputs, shrinking and panicking
/// with a reproducing seed on the first falsified case.
///
/// Set `FLEP_CHECK_REPRO=<seed>` (decimal or `0x`-hex) to re-run exactly one
/// case from that seed — the harness prints nothing and runs only it.
///
/// # Panics
///
/// Panics when the property is falsified (after shrinking), or when more
/// than 20× `cfg.cases` consecutive inputs are discarded by
/// [`assume!`](crate::assume).
pub fn check<T, G, P>(name: &str, cfg: CheckConfig, gen: G, prop: P)
where
    T: Debug + Clone + Shrink,
    G: Fn(&mut SimRng) -> T,
    P: Fn(&T) -> CaseResult,
{
    if let Some(seed) = env_knob("FLEP_CHECK_REPRO", parse_repro) {
        let mut rng = SimRng::seed_from(seed);
        let input = gen(&mut rng);
        match prop(&input) {
            Ok(()) => println!("[flep-check] {name}: seed {seed:#x} passes"),
            Err(f) if f.discard => println!("[flep-check] {name}: seed {seed:#x} discarded"),
            Err(f) => fail(name, &cfg, seed, 0, &prop, input, f),
        }
        return;
    }

    let mut passed: u32 = 0;
    let mut index: u64 = 0;
    let budget = u64::from(cfg.cases) * 20;
    while passed < cfg.cases {
        assert!(
            index < budget,
            "[flep-check] property '{name}': {passed}/{} cases passed but {index} inputs \
             were generated — assume! discards too much; loosen the generator",
            cfg.cases
        );
        let seed = case_seed(cfg.seed, index);
        index += 1;
        let mut rng = SimRng::seed_from(seed);
        let input = gen(&mut rng);
        match prop(&input) {
            Ok(()) => passed += 1,
            Err(f) if f.discard => {}
            Err(f) => fail(name, &cfg, seed, passed, &prop, input, f),
        }
    }
}

fn fail<T, P>(
    name: &str,
    cfg: &CheckConfig,
    seed: u64,
    passed_before: u32,
    prop: &P,
    input: T,
    first: Falsified,
) -> !
where
    T: Debug + Clone + Shrink,
    P: Fn(&T) -> CaseResult,
{
    let (shrunk, message, steps) = shrink_failure(prop, input, first, cfg.max_shrink_steps);
    panic!(
        "\n[flep-check] property '{name}' falsified after {passed_before} passing case(s)\n\
         reproducing seed: {seed:#018x}  (re-run just this case with FLEP_CHECK_REPRO={seed:#x})\n\
         counterexample (after {steps} shrink step(s)):\n  {shrunk:?}\n{message}\n"
    );
}

/// Greedily walks the shrink tree: keeps the first candidate that still
/// falsifies the property, restarting from it, until no candidate fails or
/// the step budget is exhausted.
fn shrink_failure<T, P>(prop: &P, input: T, first: Falsified, max_steps: u32) -> (T, String, u32)
where
    T: Debug + Clone + Shrink,
    P: Fn(&T) -> CaseResult,
{
    let mut best = input;
    let mut message = first.message;
    let mut steps: u32 = 0;
    'outer: loop {
        for cand in best.shrink() {
            if steps >= max_steps {
                break 'outer;
            }
            steps += 1;
            if let Err(f) = prop(&cand) {
                if !f.discard {
                    best = cand;
                    message = f.message;
                    continue 'outer;
                }
            }
        }
        break;
    }
    (best, message, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u32;
        let counter = std::cell::Cell::new(0u32);
        check(
            "tautology",
            CheckConfig::with_cases(100),
            |rng| rng.uniform_u64(0, 100),
            |_| {
                counter.set(counter.get() + 1);
                Ok(())
            },
        );
        count += counter.get();
        assert_eq!(count, 100);
    }

    #[test]
    fn case_seeds_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..32).map(|i| case_seed(DEFAULT_SEED, i)).collect();
        let b: Vec<u64> = (0..32).map(|i| case_seed(DEFAULT_SEED, i)).collect();
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len());
    }

    #[test]
    #[should_panic(expected = "reproducing seed")]
    fn failing_property_reports_seed() {
        check(
            "always_false",
            CheckConfig::with_cases(8),
            |rng| rng.uniform_u64(0, 100),
            |_| Err(Falsified::new("nope")),
        );
    }

    #[test]
    fn shrinking_reaches_a_minimal_scalar() {
        // Property: value < 50. Smallest counterexample is exactly 50.
        let (shrunk, _, _) = shrink_failure(
            &|&v: &u64| {
                if v < 50 {
                    Ok(())
                } else {
                    Err(Falsified::new("too big"))
                }
            },
            931_004,
            Falsified::new("too big"),
            10_000,
        );
        assert_eq!(shrunk, 50);
    }

    #[test]
    fn shrinking_prunes_vectors() {
        // Property: no element exceeds 9. Minimal counterexample: [10].
        let (shrunk, _, _) = shrink_failure(
            &|v: &Vec<u64>| {
                if v.iter().all(|&x| x <= 9) {
                    Ok(())
                } else {
                    Err(Falsified::new("element too big"))
                }
            },
            vec![3, 77, 12, 0, 41],
            Falsified::new("element too big"),
            10_000,
        );
        assert_eq!(shrunk, vec![10]);
    }

    #[test]
    fn assume_discards_do_not_count_as_passes() {
        let evaluated = std::cell::Cell::new(0u32);
        check(
            "assume_filter",
            CheckConfig::with_cases(16),
            |rng| rng.uniform_u64(0, 100),
            |&v| {
                assume!(v % 2 == 0);
                evaluated.set(evaluated.get() + 1);
                require!(v % 2 == 0);
                Ok(())
            },
        );
        assert_eq!(evaluated.get(), 16);
    }

    /// The knob warnings are stable, exact strings: knob, offending value,
    /// rule, and what happens instead.
    #[test]
    fn bad_cases_warning_text_is_stable() {
        assert_eq!(parse_cases("200"), Ok(200));
        for bad in ["0", "many", "-4", ""] {
            assert_eq!(
                parse_cases(bad),
                Err(format!(
                    "FLEP_CHECK_CASES: invalid value {bad:?} (want an integer >= 1); using 64"
                ))
            );
        }
    }

    #[test]
    fn bad_seed_warning_text_is_stable() {
        assert_eq!(parse_root_seed("0xF1E9"), Ok(0xF1E9));
        assert_eq!(parse_root_seed("17"), Ok(17));
        assert_eq!(
            parse_root_seed("0xZZ"),
            Err(
                "FLEP_CHECK_SEED: invalid value \"0xZZ\" (want a decimal or 0x-hex u64); \
                 using 0xf1ebc4ec0de5eed5"
                    .into()
            )
        );
    }

    #[test]
    fn bad_repro_warning_text_is_stable() {
        assert_eq!(parse_repro("0x1f"), Ok(0x1f));
        assert_eq!(
            parse_repro("yes"),
            Err(
                "FLEP_CHECK_REPRO: invalid value \"yes\" (want a decimal or 0x-hex case seed); \
                 running every case"
                    .into()
            )
        );
    }

    #[test]
    fn tuple_shrink_varies_one_component_at_a_time() {
        let t = (4u64, 2u32);
        for cand in t.shrink() {
            let changed = usize::from(cand.0 != t.0) + usize::from(cand.1 != t.1);
            assert_eq!(changed, 1, "candidate {cand:?} changed {changed} fields");
        }
    }
}
