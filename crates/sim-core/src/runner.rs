//! Determinism-preserving parallel runner: the workspace's one worker
//! pool.
//!
//! Every figure of the paper is an embarrassingly parallel grid of
//! independent cells — one simulated co-run per `(pair, repeat)` or
//! `(case, sweep-point)` coordinate — and the cluster epoch driver steps
//! independent device streams between barriers. Both fan out through
//! [`run_cells`] (`std::thread::scope`, zero dependencies), which keeps
//! the output *byte-identical at any thread count*:
//!
//! * **Seeding** — a cell never draws from a shared RNG stream. Each cell
//!   derives its seeds from the experiment's root seed and its own grid
//!   coordinates via [`cell_seed`] (two rounds of the SplitMix64
//!   finalizer), so the randomness a cell sees is a pure function of
//!   *which* cell it is, not of *when* it runs.
//! * **Merging** — [`run_cells`] returns results in cell-index order no
//!   matter which worker computed them, so every downstream fold,
//!   summary, and `FLEP_JSON` document is independent of scheduling.
//!
//! The thread count comes from `FLEP_THREADS` (default:
//! `available_parallelism()`; `1` selects the sequential reference path,
//! which runs the exact same cell closures inline). Tests pin the count
//! programmatically with [`with_threads`].
//!
//! **One thread rule:** a worker runs its cells under `with_threads(1)`,
//! so a run nested inside a cell (an epoch-stepped cluster inside a sweep
//! cell) steps inline on that worker instead of oversubscribing the
//! machine. Only a top-level run fans out.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::knob::{env_opt, parse_uint};

thread_local! {
    /// Scoped override installed by [`with_threads`]; beats the
    /// environment when set.
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `f` with the worker-thread count pinned to `threads`, restoring
/// the previous configuration afterwards (also on panic).
///
/// This is the programmatic equivalent of setting `FLEP_THREADS` and is
/// how the determinism tests compare `threads = 1` against `threads = 8`
/// without touching process-global environment state.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            THREAD_OVERRIDE.with(|c| c.set(prev));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(threads.max(1)))));
    f()
}

/// The configured worker-thread count: the [`with_threads`] override if
/// one is active (inside a [`run_cells`] worker, always 1), else
/// `FLEP_THREADS`, else `available_parallelism()`.
///
/// The environment is read once per process, so an invalid `FLEP_THREADS`
/// value (unparsable, or `0`) warns on stderr through [`crate::knob`]
/// once — not once per grid or epoch — and falls back to the default.
#[must_use]
pub fn configured_threads() -> usize {
    static FROM_ENV: OnceLock<usize> = OnceLock::new();
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n;
    }
    *FROM_ENV.get_or_init(|| {
        env_opt("FLEP_THREADS", THREADS_FALLBACK, parse_threads).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    })
}

/// Parses a `FLEP_THREADS` value: at least 1 worker.
fn parse_threads(raw: &str) -> Result<usize, String> {
    parse_uint(raw, 1)
}

/// What happens instead when `FLEP_THREADS` is invalid.
const THREADS_FALLBACK: &str = "using available parallelism";

/// Evaluates `f(0..n)` across the configured worker threads and returns
/// the results in index order.
///
/// Cells are handed out through an atomic cursor (dynamic load balancing:
/// a slow SPMV co-run does not hold up 27 fast ones), and each result is
/// stored at its own index, so the returned `Vec` — and anything folded
/// from it — is byte-identical whether one thread or sixteen did the
/// work. With one configured thread (or one cell) the cells run inline on
/// the caller's thread: the sequential reference path. Spawned workers
/// run their cells under `with_threads(1)` (the one thread rule, see the
/// module docs).
///
/// # Panics
///
/// Propagates the first panic of any cell, like the sequential loop
/// would.
pub fn run_cells<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = configured_threads().min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                with_threads(1, || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = f(i);
                    results.lock().expect("runner poisoned")[i] = Some(result);
                });
            });
        }
    });
    results
        .into_inner()
        .expect("runner poisoned")
        .into_iter()
        .map(|r| r.expect("every cell ran"))
        .collect()
}

/// SplitMix64 finalizer: the bijective avalanche mix at the heart of the
/// seeding scheme.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed for draw `draw` of cell `cell` from an experiment's
/// root seed.
///
/// Two SplitMix64 rounds separated by odd-constant multiplies of the
/// coordinates: neighbouring cells (and neighbouring draws within a
/// cell) get unrelated streams, and the result depends only on
/// `(root, cell, draw)` — never on evaluation order, which is what lets
/// cells run on any thread in any order.
#[must_use]
pub fn cell_seed(root: u64, cell: usize, draw: u64) -> u64 {
    let coord = mix((cell as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(draw.wrapping_mul(0xD1B5_4A32_D192_ED03)));
    mix(root ^ coord)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_at_any_thread_count() {
        let expected: Vec<usize> = (0..97).map(|i| i * i).collect();
        for threads in [1, 2, 5, 16] {
            let got = with_threads(threads, || run_cells(97, |i| i * i));
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_cell_grids() {
        assert_eq!(run_cells(0, |i| i), Vec::<usize>::new());
        assert_eq!(run_cells(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn with_threads_restores_previous_configuration() {
        let outer = with_threads(3, || {
            let inner = with_threads(5, configured_threads);
            assert_eq!(inner, 5);
            configured_threads()
        });
        assert_eq!(outer, 3);
    }

    /// The one thread rule: a cell running on a spawned worker sees one
    /// configured thread, so a nested run steps inline.
    #[test]
    fn workers_configure_one_thread_for_nested_runs() {
        let seen = with_threads(4, || run_cells(8, |_| configured_threads()));
        assert_eq!(seen, vec![1; 8]);
        let nested = with_threads(3, || {
            run_cells(6, |i| {
                let me = std::thread::current().id();
                run_cells(4, |j| (i * j, std::thread::current().id() == me))
            })
        });
        for (i, row) in nested.iter().enumerate() {
            assert_eq!(row.len(), 4);
            for (j, &(v, inline)) in row.iter().enumerate() {
                assert_eq!(v, i * j);
                assert!(inline, "nested cell ({i},{j}) left its worker");
            }
        }
        // The override is per worker: the caller's own setting survives.
        assert_eq!(with_threads(3, configured_threads), 3);
    }

    /// The `FLEP_THREADS` warning is the one line both the runner and the
    /// epoch driver (which steps devices through the runner) print, with
    /// no machine-dependent number in it.
    #[test]
    fn bad_threads_warning_text_is_stable() {
        use crate::knob::parse_knob;
        let threads = |raw: &str| parse_knob("FLEP_THREADS", raw, THREADS_FALLBACK, parse_threads);
        assert_eq!(threads("8"), Ok(8));
        assert_eq!(threads(" 3 "), Ok(3));
        for bad in ["all", "0", "", "-2"] {
            assert_eq!(
                threads(bad),
                Err(format!(
                    "FLEP_THREADS: invalid value {bad:?} (want an integer >= 1); \
                     using available parallelism"
                ))
            );
        }
    }

    #[test]
    fn cell_seeds_are_deterministic_and_distinct() {
        let mut seeds = Vec::new();
        for cell in 0..32 {
            for draw in 0..4 {
                seeds.push(cell_seed(42, cell, draw));
            }
        }
        let rerun: Vec<u64> = (0..32)
            .flat_map(|c| (0..4).map(move |d| cell_seed(42, c, d)))
            .collect();
        assert_eq!(seeds, rerun);
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "seed collision");
        // And the root seed matters.
        assert_ne!(cell_seed(1, 0, 0), cell_seed(2, 0, 0));
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                run_cells(8, |i| {
                    assert!(i != 5, "cell 5 exploded");
                    i
                })
            })
        });
        assert!(caught.is_err());
    }
}
