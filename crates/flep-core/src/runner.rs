//! Determinism-preserving parallel experiment runner.
//!
//! Every figure of the paper is an embarrassingly parallel grid of
//! independent cells — one simulated co-run per `(pair, repeat)` or
//! `(case, sweep-point)` coordinate. This module fans those cells out
//! across OS threads (`std::thread::scope`, zero dependencies) while
//! keeping the output *byte-identical at any thread count*:
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

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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
/// one is active, else `FLEP_THREADS`, else `available_parallelism()`.
///
/// Invalid `FLEP_THREADS` values (unparsable, or `0`) are reported on
/// stderr and fall back to the default rather than being silently
/// swallowed.
#[must_use]
pub fn configured_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n;
    }
    let default = || {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    };
    match std::env::var("FLEP_THREADS") {
        Ok(v) => match parse_threads(&v) {
            Ok(n) => n,
            Err(warning) => {
                eprintln!("{warning}");
                default()
            }
        },
        Err(_) => default(),
    }
}

/// Parses a `FLEP_THREADS` value with the runner's fallback: the thread
/// count for valid input, or the exact warning line
/// [`configured_threads`] prints for invalid input (unparsable, or `0`).
/// The parsing itself is [`flep_runtime::parse_threads`], shared with the
/// cluster epoch driver; the warning names no machine-dependent fallback
/// value, so tests can pin it.
pub fn parse_threads(raw: &str) -> Result<usize, String> {
    flep_runtime::parse_threads(raw, "available parallelism")
}

/// Evaluates `f(0..n)` across the configured worker threads and returns
/// the results in index order.
///
/// Cells are handed out through an atomic cursor (dynamic load balancing:
/// a slow SPMV co-run does not hold up 27 fast ones), and each result is
/// stored at its own index, so the returned `Vec` — and anything folded
/// from it — is byte-identical whether one thread or sixteen did the
/// work. With one configured thread (or one cell) the cells run inline on
/// the caller's thread: the sequential reference path.
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
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(i);
                results.lock().expect("runner poisoned")[i] = Some(result);
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
