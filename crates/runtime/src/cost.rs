//! The parallelism profitability rule: one fixed cost model that marks each
//! parallel region `Sequential` or `Parallel { min_chunk }` from its shape.
//!
//! Call sites describe a region by its shape ([`RegionCost`]: items, flops
//! and bytes per item) and ask [`decide`] rather than picking their own
//! grain. The verdict is a pure function of that shape and the fixed
//! constants below, so the same region fans out the same way in every
//! process on every host.
//!
//! # The decision rule
//!
//! [`decide`] marks a region [`Decision::Sequential`] unless *both*:
//!
//! * its modeled single-thread time exceeds a multiple of the scope-spawn
//!   cost ([`CostConstants::dispatch_ns`]) — tiny regions stay inline;
//! * the derived grain leaves at least two chunks — otherwise parallel
//!   dispatch cannot overlap anything.
//!
//! When it does parallelize, the grain is sized so each chunk amortizes
//! per-task overhead ([`CostConstants::task_ns`]) many times over. A
//! single-core host (or `PACE_THREADS=1`) still runs every region inline:
//! the call sites also require more than one [`crate::threads`], and
//! [`crate::run`] never starts more workers than that.
//!
//! # Determinism
//!
//! The rule feeds `min_chunk` values into [`crate::chunk_ranges`], so it
//! is only consulted at *result-grid-independent* sites: disjoint
//! `&mut` writes ([`crate::for_each_split`]) and per-item maps whose
//! outputs are concatenated in chunk order ([`crate::par_chunks`]).
//! Ordered floating-point reductions keep their constant grains — their
//! accumulation order must stay a pure function of input shape.

use std::sync::Mutex;

/// Machine constants of the cost model behind [`decide`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostConstants {
    /// Cost of one parallel-region fan-out (scope spawn + join), in ns.
    pub dispatch_ns: f64,
    /// Per-task overhead inside a region (slot locking, pull counter), ns.
    pub task_ns: f64,
    /// Sustained arithmetic throughput, FLOPs per ns (single thread).
    pub flops_per_ns: f64,
    /// Sustained memory bandwidth, bytes per ns (single thread).
    pub bytes_per_ns: f64,
    /// Measured two-thread speedup of a region the rule fans out. Reported
    /// alongside the other constants; [`decide`] does not read it.
    pub effective_parallelism: f64,
}

/// The fixed model, measured on a 2-core x86-64 host (`nproc` 2, shared
/// with other tenants) with the release profile:
///
/// * `dispatch_ns`: an empty 2-task [`crate::run`] region took 51–72 µs
///   (median of 2000, five runs; a bare 2-thread scope took 44–66 µs);
/// * `task_ns`: 10 000 no-op tasks at 2 threads cost 15 ns each beyond
///   dispatch; 30 leaves headroom for the slot lock of `par_map`;
/// * `flops_per_ns`: one thread of `matmul_rows` sustains 9–16 flop/ns on
///   64³–160³ products;
/// * `bytes_per_ns`: `count_batch` models a query as one 8-byte read per
///   dataset row; 5 puts a quick-TPC-H query (5070 rows) at 8 µs, within
///   2.5× of its measured 15–19 µs;
/// * `effective_parallelism`: 2 threads ran a 96-query `count_batch`
///   1.37–1.53× and a 160² matmul 1.16–1.41× faster than 1 thread.
///
/// The rule fans out when modeled time reaches 4 × 60 µs = 240 µs. The
/// measured 1-vs-2-thread crossovers (median of 50–400 repeats, best of
/// three rounds, grain 1) sit there:
///
/// * `matmul_rows`: 2 threads lose below 2 M flops (32×128×128: 1.6–2.1×
///   slower; 64³: 1.8–2.6×), roughly break even at 2–4 M (64×128×128,
///   128³, 32×256², 256×64²: 0.76–1.18×, one 1.96× outlier) and win at
///   160³ (8.2 M flops, 0.71–0.86×). The rule's threshold is 2.4 M flops.
/// * `count_batch` on quick TPC-H: 2 threads lose at 8 queries (1.3–2.1×),
///   break even at 16 (0.91–1.48×) and win from 32 (0.69–0.93×; 96:
///   0.66–0.73×). The rule's threshold is 30 queries.
///
/// Every region of the perfbench workloads lands far from these
/// thresholds: their `count_batch` calls (80–4000 queries) fan out, and no
/// tensor region (at most 53 µs modeled) does.
const MODEL: CostConstants = CostConstants {
    dispatch_ns: 60_000.0,
    task_ns: 30.0,
    flops_per_ns: 10.0,
    bytes_per_ns: 5.0,
    effective_parallelism: 1.4,
};

/// Static cost summary of one candidate parallel region: how many
/// independent items it has and what each item costs.
#[derive(Clone, Copy, Debug)]
pub struct RegionCost {
    /// Number of independent work items (rows, queries, tape steps).
    pub items: usize,
    /// Arithmetic per item, in floating-point operations.
    pub flops_per_item: f64,
    /// Memory traffic per item, in bytes.
    pub bytes_per_item: f64,
}

/// The rule's verdict for a region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Run inline; parallel dispatch would not pay for itself.
    Sequential,
    /// Fan out with the given `min_chunk` grain (items per chunk).
    Parallel {
        /// Minimum items per chunk, sized to amortize per-task overhead.
        min_chunk: usize,
    },
}

impl Decision {
    /// The `min_chunk` to pass to the pool: the parallel grain, or `len`
    /// (collapsing the grid to a single inline chunk) when sequential.
    pub fn grain(&self, len: usize) -> usize {
        match *self {
            Decision::Sequential => len.max(1),
            Decision::Parallel { min_chunk } => min_chunk.max(1),
        }
    }

    /// True for [`Decision::Parallel`].
    pub fn is_parallel(&self) -> bool {
        matches!(self, Decision::Parallel { .. })
    }
}

/// Predicted single-thread nanoseconds for one item of a region under the
/// given constants (the max of the compute and bandwidth bounds, floored
/// away from zero so grain division is always defined).
fn item_ns(c: &CostConstants, r: &RegionCost) -> f64 {
    let compute = r.flops_per_item.max(0.0) / c.flops_per_ns;
    let traffic = r.bytes_per_item.max(0.0) / c.bytes_per_ns;
    compute.max(traffic).max(0.5)
}

/// How many dispatch costs a region must be predicted to cover before the
/// rule will fan it out.
const MIN_DISPATCH_RATIO: f64 = 4.0;
/// How many per-task overheads one chunk must amortize.
const TASK_AMORTIZATION: f64 = 8.0;

/// The profitability rule: marks a region `Sequential` or
/// `Parallel { min_chunk }` from its shape and [`constants`] (see the
/// module docs). Pure in both — never reads the thread count or the clock —
/// so chunk grids stay deterministic.
pub fn decide(r: RegionCost) -> Decision {
    if r.items <= 1 {
        return Decision::Sequential;
    }
    let c = constants();
    let per_item = item_ns(&c, &r);
    if per_item * (r.items as f64) < MIN_DISPATCH_RATIO * c.dispatch_ns {
        return Decision::Sequential;
    }
    let min_chunk = ((TASK_AMORTIZATION * c.task_ns / per_item).ceil() as usize).max(1);
    if r.items / min_chunk < 2 {
        return Decision::Sequential;
    }
    Decision::Parallel { min_chunk }
}

/// The constants [`decide`] uses: a [`set_constants`] override if one is
/// set, otherwise the fixed, measured model.
pub fn constants() -> CostConstants {
    lock().unwrap_or(MODEL)
}

/// Overrides (or with `None`, clears) the constants [`decide`] uses. Tests
/// use this to force parallel-friendly models, so the fan-out paths run on
/// shapes the fixed model keeps inline.
pub fn set_constants(c: Option<CostConstants>) {
    *lock() = c;
}

static OVERRIDE: Mutex<Option<CostConstants>> = Mutex::new(None);

fn lock() -> std::sync::MutexGuard<'static, Option<CostConstants>> {
    OVERRIDE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The constants override is process-global; tests that set it must
    /// not interleave.
    static GLOBALS: Mutex<()> = Mutex::new(());

    fn serialize() -> std::sync::MutexGuard<'static, ()> {
        GLOBALS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn parallel_friendly() -> CostConstants {
        CostConstants {
            dispatch_ns: 10_000.0,
            task_ns: 200.0,
            flops_per_ns: 4.0,
            bytes_per_ns: 8.0,
            effective_parallelism: 8.0,
        }
    }

    #[test]
    fn oracle_parallelizes_big_regions_and_inlines_small_ones() {
        let _g = serialize();
        set_constants(Some(parallel_friendly()));
        let big = decide(RegionCost {
            items: 4096,
            flops_per_item: 100_000.0,
            bytes_per_item: 1024.0,
        });
        assert!(big.is_parallel(), "{big:?}");
        if let Decision::Parallel { min_chunk } = big {
            assert!((1..=4096).contains(&min_chunk));
        }
        let tiny = decide(RegionCost {
            items: 8,
            flops_per_item: 10.0,
            bytes_per_item: 8.0,
        });
        assert_eq!(tiny, Decision::Sequential);
        set_constants(None);
    }

    #[test]
    fn grain_amortizes_task_overhead() {
        let _g = serialize();
        set_constants(Some(parallel_friendly()));
        // Cheap items: the grain must batch many of them per task.
        let d = decide(RegionCost {
            items: 1 << 20,
            flops_per_item: 4.0,
            bytes_per_item: 8.0,
        });
        if let Decision::Parallel { min_chunk } = d {
            assert!(
                min_chunk > 100,
                "cheap items need coarse chunks: {min_chunk}"
            );
        } else {
            panic!("huge region should parallelize: {d:?}");
        }
        // Expensive items: fine grains are fine.
        let d = decide(RegionCost {
            items: 256,
            flops_per_item: 1e7,
            bytes_per_item: 1e4,
        });
        if let Decision::Parallel { min_chunk } = d {
            assert_eq!(min_chunk, 1, "expensive items go one per chunk");
        } else {
            panic!("expensive region should parallelize: {d:?}");
        }
        set_constants(None);
    }

    #[test]
    fn override_clears_back_to_the_fixed_model() {
        let _g = serialize();
        assert_eq!(constants(), MODEL);
        set_constants(Some(parallel_friendly()));
        assert_eq!(constants(), parallel_friendly());
        set_constants(None);
        assert_eq!(constants(), MODEL);
    }
}
