//! `pace-runtime` — the deterministic parallel runtime behind every PACE
//! hot path (re-exported as `pace_tensor::pool`).
//!
//! # The determinism contract
//!
//! Every primitive in this module produces results that are **bit-identical
//! for any thread count**, including fully sequential execution. Two rules
//! make that hold:
//!
//! 1. **Chunk boundaries are derived from input size, never thread count.**
//!    [`chunk_ranges`] partitions `0..len` into a grid that depends only on
//!    `len` and the caller's (constant) minimum chunk size. Threads pull
//!    whole chunks from a shared counter; which worker computes a chunk can
//!    vary run to run, but *what* each chunk computes cannot.
//! 2. **Reductions are ordered.** Per-chunk partial results land in a slot
//!    indexed by chunk id, and the caller folds them in ascending chunk
//!    order after the fan-out completes ([`par_chunks`] returns them in that
//!    order). Floating-point accumulation order is therefore a pure function
//!    of the input shape.
//!
//! Consequently `PACE_THREADS=1` and `PACE_THREADS=64` runs of labeling,
//! training, and campaigns are byte-identical — the property the chaos
//! matrix, campaign resume, and tape-replay parity gates all rely on
//! (`cargo run -p xtask -- determinism` checks it in CI).
//!
//! # Concurrency safety
//!
//! Safe Rust rules out data races (`unsafe` is forbidden workspace-wide), so
//! the contract only needs two more guarantees, both machine-checked:
//!
//! * **Grids tile their buffers.** [`split_by_grid`] — the one place a
//!   caller-supplied grid enters the pool — asserts on every call that the
//!   grid covers `0..len` in order with no gap or overlap, and panics with
//!   the offending range otherwise. The cost is O(chunks), at most 32 per
//!   region.
//! * **Results do not depend on the schedule.** [`race::set_sched`] turns
//!   the work-pulling loop adversarial: task execution order is permuted by
//!   a seeded PRNG and randomized yields are injected between pulls. Results
//!   must not change — `xtask determinism` sweeps seeds × thread counts and
//!   asserts bit-identical output.
//!
//! A panicking pool task no longer tears down the scope with a generic
//! "scoped thread panicked" message: each task runs under `catch_unwind`,
//! the **lowest-indexed** panic payload is kept (deterministic no matter
//! which worker hit it first), and [`run`] re-raises it after the region
//! joins.
//!
//! # Thread-count resolution (`PACE_THREADS`)
//!
//! * `0` or unset — auto: [`std::thread::available_parallelism`];
//! * `1` — fully sequential (no worker threads are ever spawned);
//! * `N` — exactly `N` workers per parallel region.
//!
//! The variable is read once, on first use; tests and benchmarks override
//! it at any time with [`set_threads`]. An explicit [`set_threads`] always
//! wins over a concurrent first-use env resolution (the resolver publishes
//! with a compare-exchange and defers to any value that beat it in).
//!
//! # Why scoped fan-out rather than persistent workers
//!
//! The workspace forbids `unsafe` code, and lending stack-borrowed closures
//! to long-lived worker threads cannot be expressed safely without it (this
//! is the unsafe core of rayon). Instead each parallel region performs one
//! `std::thread::scope` fan-out — the only place in the workspace allowed
//! to touch raw threads (`xtask lint` enforces this). Regions are coarse
//! (a chunk of queries, a panel of matrix rows), so the few-microsecond
//! spawn cost is noise; the env-var parse and thread-count decision happen
//! once per process.
//!
//! Parallel regions do not nest: a worker thread that reaches another
//! parallel region runs it inline. Because of the determinism contract this
//! changes nothing about the results — only about who computes them.

#![warn(missing_docs)]

pub mod cost;
pub mod flags;
pub mod race;

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Sentinel meaning "PACE_THREADS not resolved yet".
const UNRESOLVED: usize = usize::MAX;

/// Resolved worker count (never [`UNRESOLVED`] after first use).
static THREADS: AtomicUsize = AtomicUsize::new(UNRESOLVED);

thread_local! {
    /// True on a pool worker thread; nested regions run inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Auto thread count: the machine's available parallelism.
fn auto_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The configured worker count: `PACE_THREADS` resolved once (`0`/unset →
/// available parallelism), or the latest [`set_threads`] override.
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        UNRESOLVED => {
            let parsed = std::env::var("PACE_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .unwrap_or(0);
            let resolved = if parsed == 0 { auto_threads() } else { parsed };
            // Publish only if still unresolved: a concurrent `set_threads`
            // override must not be clobbered by a late env-derived store.
            match THREADS.compare_exchange(
                UNRESOLVED,
                resolved,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => resolved,
                Err(current) => current,
            }
        }
        n => n,
    }
}

/// Overrides the worker count for this process (`0` restores auto), taking
/// precedence over `PACE_THREADS`. Results are unaffected by construction —
/// this is a performance knob and the lever determinism tests sweep.
pub fn set_threads(n: usize) {
    let resolved = if n == 0 { auto_threads() } else { n };
    THREADS.store(resolved, Ordering::Relaxed);
}

/// Puts thread-count resolution back in the "never resolved" state so tests
/// can exercise the first-use path. Not part of the public API.
#[doc(hidden)]
pub fn unresolve_threads_for_tests() {
    THREADS.store(UNRESOLVED, Ordering::Relaxed);
}

/// True when called from inside a pool worker (used to run nested parallel
/// regions inline instead of over-subscribing).
pub fn in_worker() -> bool {
    IN_POOL.with(Cell::get)
}

/// Target number of chunks per region. More chunks than any sane thread
/// count, so the work-pulling counter load-balances uneven chunks; a
/// constant, so the grid never depends on the thread count.
const TARGET_CHUNKS: usize = 32;

/// Partitions `0..len` into contiguous `(start, end)` ranges — the fixed
/// work grid of a parallel region. The grid depends only on `len` and
/// `min_chunk` (which callers fix per call site): at most [`TARGET_CHUNKS`]
/// chunks, each at least `min_chunk` items (except possibly the last),
/// sized as evenly as integer division allows.
pub fn chunk_ranges(len: usize, min_chunk: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let min_chunk = min_chunk.max(1);
    let chunks = (len / min_chunk).clamp(1, TARGET_CHUNKS);
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        out.push((start, start + size));
        start += size;
    }
    out
}

/// Splits one output buffer into the disjoint `&mut` chunks of a grid
/// (normally from [`chunk_ranges`]), pairing each chunk with its `lo`
/// offset. This is the sanctioned hand-off for parallel `&mut` access:
/// split before the fan-out, move each chunk into its task.
///
/// # Panics
/// Panics, naming the offending range, unless `grid` tiles
/// `0..data.len()` in order: the split is sequential by chunk *size*, so a
/// gap, an overlap, or a short or over-long grid would otherwise hand out
/// chunks whose labels silently drift from the data they cover.
#[track_caller]
pub fn split_by_grid<'a, T>(
    data: &'a mut [T],
    grid: &[(usize, usize)],
) -> Vec<(usize, &'a mut [T])> {
    let len = data.len();
    let mut covered = 0;
    let mut rest = data;
    let mut parts = Vec::with_capacity(grid.len());
    for (i, &(lo, hi)) in grid.iter().enumerate() {
        assert!(
            lo <= covered,
            "split_by_grid: gap [{covered}, {lo}) before chunk {i} [{lo}, {hi}) of 0..{len}"
        );
        assert!(
            lo == covered,
            "split_by_grid: overlap [{lo}, {covered}) at chunk {i} [{lo}, {hi}) of 0..{len}"
        );
        assert!(
            lo <= hi && hi <= len,
            "split_by_grid: chunk {i} [{lo}, {hi}) is inverted or runs past 0..{len}"
        );
        let (head, tail) = rest.split_at_mut(hi - lo);
        parts.push((lo, head));
        rest = tail;
        covered = hi;
    }
    assert!(
        covered == len,
        "split_by_grid: gap [{covered}, {len}) after the last chunk of 0..{len}"
    );
    parts
}

/// Executes `f(0)`, …, `f(tasks - 1)`, each exactly once, distributing
/// tasks over `min(threads(), tasks)` workers. Runs inline when the pool is
/// sequential, the region is trivial, or we are already on a worker.
///
/// Task *results* must be communicated through disjoint slots (as the
/// higher-level primitives do); the execution order of tasks is unspecified
/// (and actively permuted under [`race::set_sched`]). A panicking task
/// propagates the panic to the caller once the region joins — the
/// lowest-indexed panic wins when several tasks panic — but fallible work
/// should return `Result` via [`par_try_map`] instead of panicking.
pub fn run(tasks: usize, f: impl Fn(usize) + Sync) {
    let workers = if in_worker() { 1 } else { threads().min(tasks) };
    // One pull permutation + jitter stream per region when the adversarial
    // scheduler is armed; natural order otherwise.
    let seed = race::sched_seed();
    let perm = seed.map(|sd| race::permutation(tasks, sd));
    if workers <= 1 {
        for slot in 0..tasks {
            f(perm.as_ref().map_or(slot, |p| p[slot]));
        }
        pace_trace::POOL_TASKS.add(tasks as u64);
        pace_trace::POOL_INLINE_TASKS.record(tasks as u64);
        return;
    }
    let next = AtomicUsize::new(0);
    // Lowest-indexed panic payload across workers; re-raised after join.
    let panicked: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
    std::thread::scope(|s| {
        for w in 0..workers {
            let perm = perm.as_ref();
            let (next, panicked, f) = (&next, &panicked, &f);
            s.spawn(move || {
                IN_POOL.with(|c| c.set(true));
                let mut jitter = seed.map(|sd| race::SchedJitter::new(sd, w as u64));
                let mut pulled: u64 = 0;
                loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    if slot >= tasks {
                        break;
                    }
                    let i = perm.map_or(slot, |p| p[slot]);
                    if let Some(j) = &mut jitter {
                        j.yield_before(i);
                    }
                    // A panicking task only touched its own disjoint slot,
                    // so resuming the unwind at the caller is sound.
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
                        Ok(()) => pulled += 1,
                        Err(payload) => {
                            let mut lowest = lock_ignore_poison(panicked);
                            if lowest.as_ref().is_none_or(|&(idx, _)| i < idx) {
                                *lowest = Some((i, payload));
                            }
                            break;
                        }
                    }
                }
                pace_trace::POOL_TASKS.add(pulled);
                pace_trace::POOL_CHUNKS_PER_WORKER.record(pulled);
            });
        }
    });
    if let Some((_, payload)) = panicked
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        std::panic::resume_unwind(payload);
    }
}

/// Takes the lock even when a sibling worker panicked (the panic will
/// propagate at scope join regardless).
fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f(i, item)` for each owned item, one task per item. Ownership
/// transfer is what lets callers hand each task a disjoint `&mut` sub-slice
/// of one output buffer (split before the fan-out) — [`for_each_split`]
/// packages that pattern, grid check included.
pub fn for_each_owned<T: Send>(items: Vec<T>, f: impl Fn(usize, T) + Sync) {
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    run(slots.len(), |i| {
        let item = lock_ignore_poison(&slots[i])
            .take()
            .expect("pool task item taken exactly once");
        f(i, item);
    });
}

/// Splits `data` over `grid` (see [`split_by_grid`]) and runs
/// `f(lo, chunk)` for each part in parallel — the checked primitive for
/// writing one buffer from many tasks. A grid that does not tile
/// `0..data.len()` panics at the caller's location before any task runs.
#[track_caller]
pub fn for_each_split<T: Send>(
    data: &mut [T],
    grid: &[(usize, usize)],
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    for_each_owned(split_by_grid(data, grid), |_, (lo, chunk)| f(lo, chunk));
}

/// Maps `f` over `items` in parallel (one task per item — for coarse-grained
/// items like experiment cells), returning results in **input order**.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    run(items.len(), |i| {
        let r = f(i, &items[i]);
        *lock_ignore_poison(&slots[i]) = Some(r);
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("pool task completed")
        })
        .collect()
}

/// Fallible [`par_map`]: every item runs to completion, then the result is
/// `Ok(all results in input order)` or the error of the **lowest-indexed**
/// failing item — deterministic no matter which worker failed first. Pool
/// workers therefore surface typed errors (e.g. a `ProbeError` from a
/// fault-injected oracle) instead of panicking the process.
pub fn par_try_map<T: Sync, R: Send, E: Send>(
    items: &[T],
    f: impl Fn(usize, &T) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E> {
    let slots: Vec<Mutex<Option<Result<R, E>>>> = items.iter().map(|_| Mutex::new(None)).collect();
    run(items.len(), |i| {
        let r = f(i, &items[i]);
        *lock_ignore_poison(&slots[i]) = Some(r);
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("pool task completed")
        })
        .collect()
}

/// Runs `f(start, end)` over the fixed chunk grid of `0..len` (see
/// [`chunk_ranges`]) and returns one result per chunk **in chunk order** —
/// the ordered-reduction primitive: fold the returned vector sequentially
/// and the accumulation order is independent of the thread count.
pub fn par_chunks<R: Send>(
    len: usize,
    min_chunk: usize,
    f: impl Fn(usize, usize) -> R + Sync,
) -> Vec<R> {
    let grid = chunk_ranges(len, min_chunk);
    par_map(&grid, |_, &(lo, hi)| f(lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn chunk_grid_covers_exactly_once() {
        for len in [0usize, 1, 2, 7, 31, 32, 33, 1000, 4096] {
            for min in [1usize, 4, 100] {
                let grid = chunk_ranges(len, min);
                let mut pos = 0;
                for &(lo, hi) in &grid {
                    assert_eq!(lo, pos, "gap in grid for len={len}");
                    assert!(hi > lo, "empty chunk for len={len}");
                    pos = hi;
                }
                assert_eq!(pos, len, "grid does not cover len={len}");
                assert!(grid.len() <= TARGET_CHUNKS);
            }
        }
    }

    #[test]
    fn chunk_grid_ignores_thread_count() {
        let before = chunk_ranges(1000, 8);
        set_threads(7);
        assert_eq!(chunk_ranges(1000, 8), before);
        set_threads(1);
        assert_eq!(chunk_ranges(1000, 8), before);
        set_threads(0);
    }

    #[test]
    fn run_executes_every_task_once() {
        for t in [1usize, 2, 5] {
            set_threads(t);
            let counts: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
            run(100, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
        set_threads(0);
    }

    #[test]
    fn run_executes_every_task_once_under_adversarial_schedule() {
        race::set_sched(Some(0x5eed));
        for t in [1usize, 2, 5] {
            set_threads(t);
            let counts: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
            run(100, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
        race::set_sched(None);
        set_threads(0);
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        for t in [1usize, 3, 8] {
            set_threads(t);
            let out = par_map(&items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        }
        set_threads(0);
    }

    #[test]
    fn par_try_map_returns_lowest_index_error() {
        let items: Vec<usize> = (0..64).collect();
        for t in [1usize, 4] {
            set_threads(t);
            let r: Result<Vec<usize>, usize> =
                par_try_map(&items, |_, &x| if x % 10 == 3 { Err(x) } else { Ok(x) });
            assert_eq!(r, Err(3), "threads={t}");
        }
        set_threads(0);
        let ok: Result<Vec<usize>, usize> = par_try_map(&items, |_, &x| Ok(x));
        assert_eq!(ok.expect("no failures"), items);
    }

    #[test]
    fn ordered_chunk_reduction_is_thread_count_invariant() {
        // A float sum whose value depends on accumulation order: the chunk
        // grid pins the order, so every thread count agrees bitwise.
        let data: Vec<f32> = (0..10_000)
            .map(|i| ((i * 2654435761_usize) as f32).sin() * 1e3)
            .collect();
        let sum_with = |t: usize| -> f32 {
            set_threads(t);
            par_chunks(data.len(), 64, |lo, hi| data[lo..hi].iter().sum::<f32>())
                .into_iter()
                .sum()
        };
        let reference = sum_with(1);
        for t in [2usize, 3, 8, 13] {
            assert_eq!(sum_with(t).to_bits(), reference.to_bits(), "threads={t}");
        }
        set_threads(0);
    }

    #[test]
    fn adversarial_schedule_does_not_change_results() {
        let data: Vec<f32> = (0..10_000)
            .map(|i| ((i * 2654435761_usize) as f32).sin() * 1e3)
            .collect();
        let sum = |t: usize| -> f32 {
            set_threads(t);
            par_chunks(data.len(), 64, |lo, hi| data[lo..hi].iter().sum::<f32>())
                .into_iter()
                .sum()
        };
        race::set_sched(None);
        let reference = sum(1);
        for seed in [1u64, 2, 0xfeed_f00d] {
            race::set_sched(Some(seed));
            for t in [1usize, 4, 8] {
                assert_eq!(sum(t).to_bits(), reference.to_bits(), "seed={seed} t={t}");
            }
        }
        race::set_sched(None);
        set_threads(0);
    }

    #[test]
    fn nested_regions_run_inline() {
        set_threads(4);
        let outer: Vec<bool> = par_map(&[0usize; 8], |_, _| {
            // Inside a worker the nested region must not spawn again.
            let inner = par_map(&[0usize; 4], |_, _| in_worker());
            inner.into_iter().all(|w| w)
        });
        // Whether the outer tasks saw workers depends on thread count, but
        // nested tasks always report the worker flag (they ran inline).
        assert!(outer.into_iter().all(|b| b));
        set_threads(0);
    }

    #[test]
    fn for_each_split_hands_out_disjoint_buffers() {
        let mut out = vec![0u32; 100];
        let grid = chunk_ranges(out.len(), 10);
        set_threads(3);
        for_each_split(&mut out, &grid, |lo, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (lo + j) as u32;
            }
        });
        set_threads(0);
        assert!(out.iter().enumerate().all(|(i, &v)| v as usize == i));
    }

    #[test]
    fn split_by_grid_matches_grid_labels() {
        let mut data = vec![0u8; 37];
        let grid = chunk_ranges(data.len(), 5);
        let parts = split_by_grid(&mut data, &grid);
        assert_eq!(parts.len(), grid.len());
        for ((lo, chunk), &(glo, ghi)) in parts.iter().zip(&grid) {
            assert_eq!(*lo, glo);
            assert_eq!(chunk.len(), ghi - glo);
        }
    }
}
