//! Concurrency-safety integration tests for the pool: property-tested grid
//! hand-offs (pairwise-disjoint, exact cover), the always-on grid assertion
//! in `split_by_grid` rejecting gaps, overlaps, and short or over-long
//! grids, and deterministic panic propagation at scope join.

use pace_runtime as pool;
use pace_runtime::race;
use proptest::prelude::*;

/// Seeds defect kind `defect` into the last chunk of a clean grid and
/// returns the text its panic must contain, or `None` (grid untouched) for
/// kind 0 and for defects the grid is too small to take.
fn seed_defect(grid: &mut Vec<(usize, usize)>, len: usize, defect: usize) -> Option<String> {
    let last = grid.len().checked_sub(1)?;
    let (lo, hi) = grid[last];
    match defect {
        // Gap: the last chunk starts one element late.
        1 if lo > 0 => {
            grid[last].0 = lo + 1;
            Some(format!("gap [{lo}, {})", lo + 1))
        }
        // Overlap: the last chunk starts one element early.
        2 if lo > 0 => {
            grid[last].0 = lo - 1;
            Some(format!("overlap [{}, {lo})", lo - 1))
        }
        // Short: the last chunk is missing.
        3 => {
            grid.pop();
            Some(format!("gap [{lo}, {len})"))
        }
        // Over-long: the last chunk runs one element past the buffer.
        4 => {
            grid[last].1 = hi + 1;
            Some(format!(
                "[{lo}, {}) is inverted or runs past 0..{len}",
                hi + 1
            ))
        }
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `chunk_ranges` grids are pairwise-disjoint and exactly cover
    /// `0..len` for arbitrary lengths and `min_chunk`s: each chunk is
    /// non-empty and starts where the previous one ended, and the last one
    /// ends at `len`.
    #[test]
    fn chunk_grids_tile_exactly(len in 0usize..20_000, min_chunk in 0usize..5_000) {
        let grid = pool::chunk_ranges(len, min_chunk);
        let mut covered = 0;
        for &(lo, hi) in &grid {
            prop_assert_eq!(lo, covered);
            prop_assert!(hi > lo);
            covered = hi;
        }
        prop_assert_eq!(covered, len);
    }

    /// `split_by_grid` hand-offs match the grid's labels and lengths, and
    /// writing every chunk through its label covers each element exactly
    /// once — the disjoint `&mut` hand-off contract. The same grid with a
    /// seeded gap, overlap, missing last chunk, or over-long last chunk
    /// must panic naming the offending range.
    #[test]
    fn split_by_grid_hands_off_disjoint_exact_cover(
        len in 0usize..20_000,
        min_chunk in 0usize..5_000,
        defect in 0usize..5,
    ) {
        let mut grid = pool::chunk_ranges(len, min_chunk);
        let mut data = vec![0u32; len];
        if let Some(expected) = seed_defect(&mut grid, len, defect) {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool::split_by_grid(&mut data, &grid).len()
            }));
            let msg = panic_message(result.expect_err("a defective grid must panic"));
            prop_assert!(msg.contains(&expected), "expected {expected:?}, got {msg:?}");
        } else {
            let parts = pool::split_by_grid(&mut data, &grid);
            prop_assert_eq!(parts.len(), grid.len());
            for ((lo, chunk), &(glo, ghi)) in parts.iter().zip(&grid) {
                prop_assert_eq!(*lo, glo);
                prop_assert_eq!(chunk.len(), ghi - glo);
            }
            for (lo, chunk) in parts {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v += (lo + j) as u32 + 1;
                }
            }
            prop_assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// A panicking pool task surfaces its own payload at scope join — and when
/// several tasks panic, the lowest-indexed payload wins deterministically,
/// no matter which worker hit its panic first.
#[test]
fn pool_task_panic_surfaces_at_join_with_lowest_index() {
    pool::set_threads(4);
    let result = std::panic::catch_unwind(|| {
        pool::run(64, |i| {
            if i == 9 || i == 33 {
                panic!("task {i} exploded");
            }
        });
    });
    pool::set_threads(0);
    let payload = result.expect_err("panic must propagate to the caller");
    assert_eq!(
        panic_message(payload),
        "task 9 exploded",
        "lowest-indexed panic must win"
    );
}

/// A panic inside `par_map` must reach the caller as the task's own
/// message — not as the misleading `expect("pool task completed")` the
/// empty result slot would otherwise produce.
#[test]
fn par_map_panic_is_not_masked_as_missing_slot() {
    pool::set_threads(3);
    let result = std::panic::catch_unwind(|| {
        pool::par_map(&[0usize; 32], |i, _| {
            if i == 7 {
                panic!("mapper died at {i}");
            }
            i
        })
    });
    pool::set_threads(0);
    let msg = panic_message(result.expect_err("panic must propagate"));
    assert!(msg.contains("mapper died at 7"), "got: {msg:?}");
    assert!(!msg.contains("pool task completed"), "got: {msg:?}");
}

/// Fail-on-old-code witness for the grid assertion: a hand-rolled grid
/// with a hole hands out chunks whose labels do not tile the buffer;
/// `for_each_split` must refuse it with a panic naming the gap, with no
/// flag set.
#[test]
fn for_each_split_rejects_gap_grid() {
    pool::set_threads(2);
    let result = std::panic::catch_unwind(|| {
        let mut data = vec![0u8; 10];
        // Dirty by construction: [3, 5) is received by no task.
        let grid = [(0usize, 3usize), (5usize, 10usize)];
        pool::for_each_split(&mut data, &grid, |_, chunk| {
            chunk.fill(1);
        });
    });
    pool::set_threads(0);
    let msg = panic_message(result.expect_err("a gap grid must panic"));
    assert!(msg.contains("gap [3, 5)"), "got: {msg:?}");
}

/// The grid assertion accepts every clean primitive — no false positives
/// on the pool's own grids, at any thread count or adversarial seed.
#[test]
fn armed_checker_is_silent_on_clean_regions() {
    for seed in [None, Some(11u64)] {
        race::set_sched(seed);
        for t in [1usize, 4] {
            pool::set_threads(t);
            pool::run(37, |_| {});
            let mut data = vec![0u64; 513];
            let grid = pool::chunk_ranges(data.len(), 16);
            pool::for_each_split(&mut data, &grid, |lo, chunk| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = (lo + j) as u64;
                }
            });
            let sums = pool::par_chunks(data.len(), 16, |lo, hi| data[lo..hi].iter().sum::<u64>());
            assert_eq!(sums.iter().sum::<u64>(), (0..513u64).sum::<u64>());
            assert!(data.iter().enumerate().all(|(i, &v)| v as usize == i));
        }
    }
    race::set_sched(None);
    pool::set_threads(0);
}
