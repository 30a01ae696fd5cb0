//! Property-based tests for the simulation engine's core invariants,
//! running on the in-tree `flep-check` harness.

use flep_sim_core::check::{check, CheckConfig};
use flep_sim_core::{require, require_eq, EventQueue, SimRng, SimTime};

/// Events always pop in nondecreasing time order, regardless of the
/// insertion pattern.
#[test]
fn event_queue_pops_in_time_order() {
    check(
        "event_queue_pops_in_time_order",
        CheckConfig::default(),
        |rng: &mut SimRng| {
            let n = rng.uniform_u64(1, 199) as usize;
            (0..n)
                .map(|_| rng.uniform_u64(0, 999_999))
                .collect::<Vec<u64>>()
        },
        |times| {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_ns(t), i);
            }
            let mut last = SimTime::ZERO;
            let mut count = 0;
            while let Some(e) = q.pop() {
                require!(e.time >= last, "queue went backwards");
                last = e.time;
                count += 1;
            }
            require_eq!(count, times.len());
            Ok(())
        },
    );
}

/// Events with equal timestamps pop in insertion (FIFO) order.
#[test]
fn event_queue_is_fifo_within_a_timestamp() {
    check(
        "event_queue_is_fifo_within_a_timestamp",
        CheckConfig::default(),
        |rng: &mut SimRng| {
            let n = rng.uniform_u64(1, 29) as usize;
            (0..n)
                .map(|_| (rng.uniform_u64(0, 49), rng.uniform_u64(1, 9)))
                .collect::<Vec<(u64, u64)>>()
        },
        |groups| {
            let mut q = EventQueue::new();
            let mut seq = 0usize;
            for &(t, n) in groups {
                for _ in 0..n {
                    q.push(SimTime::from_ns(t), seq);
                    seq += 1;
                }
            }
            let mut per_time: std::collections::HashMap<SimTime, Vec<usize>> = Default::default();
            while let Some(e) = q.pop() {
                per_time.entry(e.time).or_default().push(e.payload);
            }
            for (_, payloads) in per_time {
                let mut sorted = payloads.clone();
                sorted.sort_unstable();
                require_eq!(payloads, sorted, "same-timestamp events out of FIFO order");
            }
            Ok(())
        },
    );
}

/// The indexed 4-ary queue is observationally identical to a reference
/// `BinaryHeap` model under arbitrary push/pop/clear interleavings: same
/// lengths and peeks after every operation, same `(time, payload)` stream
/// out.
///
/// Each case draws one timestamp regime, steering the heap through its
/// adversarial paths: a wide span, same-instant pileups (FIFO
/// tie-breaking carries all ordering), narrow bursts (dense collisions
/// across multi-level sifts), and timestamps hugging `u64::MAX` (the top
/// of the packed key's time field). `clear` ops land mid-stream in every
/// regime.
#[test]
fn event_queue_matches_binary_heap_model() {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    check(
        "event_queue_matches_binary_heap_model",
        CheckConfig {
            cases: 128,
            ..CheckConfig::default()
        },
        |rng: &mut SimRng| {
            let regime = rng.uniform_u64(0, 3);
            let n = rng.uniform_u64(1, 299) as usize;
            let ops = (0..n)
                .map(|_| (rng.uniform_u64(0, 9), rng.uniform_u64(0, u64::MAX - 1)))
                .collect::<Vec<(u64, u64)>>();
            (regime, ops)
        },
        |&(regime, ref ops)| {
            let time_of = |raw: u64| -> u64 {
                match regime {
                    0 => raw % 1_000_000,
                    1 => raw % 4,
                    2 => raw % 600,
                    _ => u64::MAX - raw % 96,
                }
            };
            let mut q = EventQueue::new();
            // Model: a plain max-heap of `Reverse<(time, seq)>` with its
            // own monotonic sequence counter — exactly the seed
            // implementation this queue replaced.
            let mut model: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
            let mut next_seq = 0u64;
            let mut next_payload = 0u64;
            let pop_both = |q: &mut EventQueue<u64>,
                            model: &mut BinaryHeap<Reverse<(u64, u64, u64)>>|
             -> Result<(), flep_sim_core::check::Falsified> {
                let got = q.pop().map(|e| (e.time.as_ns(), e.payload));
                let want = model.pop().map(|Reverse((t, _, p))| (t, p));
                require_eq!(got, want, "pop mismatch");
                Ok(())
            };
            for &(op, raw) in ops {
                match op {
                    // Weighted: pushes dominate so the structures grow
                    // deep enough to exercise multi-level sifts.
                    0..=6 => {
                        let t = time_of(raw);
                        q.push(SimTime::from_ns(t), next_payload);
                        model.push(Reverse((t, next_seq, next_payload)));
                        next_seq += 1;
                        next_payload += 1;
                    }
                    7..=8 => pop_both(&mut q, &mut model)?,
                    _ => {
                        q.clear();
                        model.clear();
                    }
                }
                require_eq!(q.len(), model.len(), "length diverged");
                require_eq!(
                    q.peek_time().map(|t| t.as_ns()),
                    model.peek().map(|Reverse((t, _, _))| *t),
                    "peek diverged"
                );
            }
            while !model.is_empty() || !q.is_empty() {
                pop_both(&mut q, &mut model)?;
            }
            Ok(())
        },
    );
}

/// SimTime saturating subtraction never underflows and addition is
/// commutative/associative on safe ranges.
#[test]
fn simtime_arithmetic_laws() {
    check(
        "simtime_arithmetic_laws",
        CheckConfig::default(),
        |rng: &mut SimRng| {
            (
                rng.uniform_u64(0, u64::MAX / 4 - 1),
                rng.uniform_u64(0, u64::MAX / 4 - 1),
                rng.uniform_u64(0, u64::MAX / 4 - 1),
            )
        },
        |&(a, b, c)| {
            let (ta, tb, tc) = (
                SimTime::from_ns(a),
                SimTime::from_ns(b),
                SimTime::from_ns(c),
            );
            require_eq!(ta + tb, tb + ta);
            require_eq!((ta + tb) + tc, ta + (tb + tc));
            require!((ta - tb) + tb >= ta); // saturation only rounds up
            require!((ta - tb).as_ns() <= a);
            Ok(())
        },
    );
}

/// Scaling by a factor in [0, 2] keeps durations within linear bounds.
#[test]
fn simtime_scale_bounds() {
    check(
        "simtime_scale_bounds",
        CheckConfig::default(),
        |rng: &mut SimRng| (rng.uniform_u64(0, 999_999_999), rng.uniform_f64(0.0, 2.0)),
        |&(ns, factor)| {
            let t = SimTime::from_ns(ns);
            let scaled = t.scale(factor);
            let expected = ns as f64 * factor;
            require!(
                (scaled.as_ns() as f64 - expected).abs() <= 1.0,
                "scaled {} vs expected {expected}",
                scaled.as_ns()
            );
            Ok(())
        },
    );
}

/// `SimTime`'s integer rounding (used by `scale` and `from_us_f64`) is
/// bit-identical to `f64::round` then a saturating cast, for every input.
///
/// Each case draws a batch of `f64` bit patterns from one regime: exact
/// `k + 0.5` ties and their neighbours, a few ulps around 2^52, 2^53 and
/// 2^64 (where the spacing passes 0.5, then 1, then the cast saturates),
/// small values with a fraction, raw random bits (NaN, infinities,
/// negatives, subnormals), and the fixed specials.
#[test]
fn simtime_rounding_matches_f64_round() {
    fn near(x: f64, ulps: i64) -> u64 {
        (x.to_bits() as i64 + ulps) as u64
    }
    const SPECIALS: [f64; 12] = [
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        0.0,
        -0.0,
        0.5,
        1.5,
        2.5,
        0.499_999_999_999_999_94,
        f64::MIN_POSITIVE,
        u64::MAX as f64,
        f64::MAX,
    ];
    check(
        "simtime_rounding_matches_f64_round",
        CheckConfig::with_cases(CheckConfig::default().cases.max(64)),
        |rng: &mut SimRng| {
            let regime = rng.uniform_u64(0, 5);
            (0..64)
                .map(|_| {
                    let ulps = rng.uniform_u64(0, 64) as i64 - 32;
                    match regime {
                        0 => near(rng.uniform_u64(0, 1 << 52) as f64 + 0.5, ulps % 2),
                        1 => near(2f64.powi(52), ulps),
                        2 => near(2f64.powi(53), ulps),
                        3 => near(2f64.powi(64), ulps),
                        4 => rng.uniform_f64(0.0, 1e7).to_bits(),
                        _ if ulps < 0 => rng.u64(),
                        _ => SPECIALS[ulps as usize % SPECIALS.len()].to_bits(),
                    }
                })
                .collect::<Vec<u64>>()
        },
        |bits| {
            for &b in bits {
                let x = f64::from_bits(b);
                require_eq!(
                    SimTime::from_ns(1).scale(x).as_ns(),
                    x.round() as u64,
                    "scale({x:e})"
                );
                let want = if x <= 0.0 {
                    0
                } else {
                    (x * 1_000.0).round() as u64
                };
                require_eq!(SimTime::from_us_f64(x).as_ns(), want, "from_us_f64({x:e})");
            }
            Ok(())
        },
    );
}

/// `scale` and the `as_us`/`as_ms`/`as_secs` bridges return exactly what
/// the plain unsigned `u64 → f64 → u64` arithmetic returns, for every
/// span and every factor.
///
/// Each case draws a batch of `(ns, factor)` pairs. Spans come from one
/// regime: small counts, odd counts just past 2^53 (where `u64 → f64`
/// starts to round, so a factor of 1.0 is no longer an identity), counts
/// at and past 2^63 (outside `i64`), `u64::MAX`, and raw random bits.
/// Factors mix 1.0, ±0, negatives, NaN, ±∞, subnormals, uniform values in
/// [0, 4] and raw random bits.
#[test]
fn simtime_bridges_match_unsigned_arithmetic() {
    /// `SimTime::scale` as plain unsigned arithmetic: clamp non-positive
    /// factors, multiply in `f64`, round half away from zero, saturate.
    fn unsigned_scale(ns: u64, factor: f64) -> u64 {
        if factor <= 0.0 {
            return 0;
        }
        let x = ns as f64 * factor;
        let t = x as u64;
        if x - t as f64 >= 0.5 {
            t.saturating_add(1)
        } else {
            t
        }
    }
    const FACTORS: [f64; 10] = [
        1.0,
        1.0,
        0.0,
        -0.0,
        -1.5,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        5e-324,
    ];
    check(
        "simtime_bridges_match_unsigned_arithmetic",
        CheckConfig::with_cases(CheckConfig::default().cases.max(64)),
        |rng: &mut SimRng| {
            let regime = rng.uniform_u64(0, 4);
            (0..64)
                .map(|_| {
                    let ns = match regime {
                        0 => rng.uniform_u64(0, 1 << 40),
                        1 => ((1 << 53) + rng.uniform_u64(0, 1 << 20)) | 1,
                        2 => (1 << 63) + rng.uniform_u64(0, (1 << 63) - 1),
                        3 => u64::MAX - rng.uniform_u64(0, 2),
                        _ => rng.u64(),
                    };
                    let factor = match rng.uniform_u64(0, 3) {
                        0 => FACTORS[rng.uniform_u64(0, FACTORS.len() as u64 - 1) as usize],
                        1 => rng.uniform_f64(0.0, 4.0),
                        2 => f64::from_bits(rng.u64()),
                        _ => 1.0,
                    };
                    (ns, factor.to_bits())
                })
                .collect::<Vec<(u64, u64)>>()
        },
        |pairs| {
            for &(ns, bits) in pairs {
                let factor = f64::from_bits(bits);
                let t = SimTime::from_ns(ns);
                require_eq!(
                    t.scale(factor).as_ns(),
                    unsigned_scale(ns, factor),
                    "SimTime({ns}).scale({factor:e})"
                );
                require_eq!(
                    t.as_us().to_bits(),
                    (ns as f64 / 1e3).to_bits(),
                    "as_us({ns})"
                );
                require_eq!(
                    t.as_ms().to_bits(),
                    (ns as f64 / 1e6).to_bits(),
                    "as_ms({ns})"
                );
                require_eq!(
                    t.as_secs().to_bits(),
                    (ns as f64 / 1e9).to_bits(),
                    "as_secs({ns})"
                );
            }
            Ok(())
        },
    );
}
