//! The pool's seeded adversarial scheduler.
//!
//! The determinism contract claims results are independent of which worker
//! executes which chunk and in what order. The scheduler attacks that
//! claim: a nonzero seed set with [`set_sched`] makes [`crate::run`]
//! execute tasks in a seeded pseudo-random permutation of the pull order
//! and inject randomized `yield_now` points between pulls, so worker
//! interleavings that would take weeks to hit by luck happen on demand.
//! Any result that changes under a seed is an order-dependence bug; the
//! `xtask determinism` gate sweeps seeds × thread counts and requires
//! bit-identical output.
//!
//! The other half of the pool's safety story needs no switch: safe Rust
//! rules out unsynchronized aliasing, and [`crate::split_by_grid`] asserts
//! on every call that a caller-supplied grid tiles its buffer exactly.

use std::sync::atomic::{AtomicU64, Ordering};

/// The adversarial-scheduler seed; `0` means natural scheduling.
static SCHED_SEED: AtomicU64 = AtomicU64::new(0);

/// The adversarial-scheduler seed, or `None` when scheduling is natural.
/// One relaxed atomic load — the pool queries it at the top of every
/// region.
#[inline]
pub fn sched_seed() -> Option<u64> {
    match SCHED_SEED.load(Ordering::Relaxed) {
        0 => None,
        s => Some(s),
    }
}

/// Sets the adversarial-scheduler seed for this process (`None` or
/// `Some(0)` restores natural scheduling) — the lever `xtask determinism`
/// sweeps. Results must be unaffected by construction; only interleavings
/// change.
pub fn set_sched(seed: Option<u64>) {
    SCHED_SEED.store(seed.unwrap_or(0), Ordering::Relaxed);
}

/// xorshift64* step — the zero-dependency PRNG behind the schedule fuzzer
/// (scheduling only; never used for anything that affects results).
fn xorshift(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

/// A seeded permutation of `0..n` (Fisher–Yates over xorshift64*): the
/// adversarial task-execution order for one region. Deterministic in
/// `(n, seed)`, so a failing seed reproduces exactly.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    let mut s = seed ^ 0x9e37_79b9_7f4a_7c15 ^ (n as u64).wrapping_mul(0xa076_1d64_78bd_642f);
    for i in (1..n).rev() {
        s = xorshift(s);
        let j = (s % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// Per-worker yield injector: between chunk pulls it pseudo-randomly
/// yields the thread (sometimes twice) to force interleavings the natural
/// schedule rarely produces. Seeded per `(region seed, worker)`, stepped
/// per task — deterministic, but adversarial.
pub struct SchedJitter {
    state: u64,
}

impl SchedJitter {
    /// A jitter stream for one worker of one region.
    pub fn new(seed: u64, worker: u64) -> Self {
        Self {
            state: xorshift(seed ^ worker.wrapping_mul(0xd6e8_feb8_6659_fd93) | 1),
        }
    }

    /// Maybe yields before the pulled task `i` runs.
    pub fn yield_before(&mut self, i: usize) {
        self.state = xorshift(self.state ^ (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
        match self.state % 8 {
            0 | 1 => std::thread::yield_now(),
            2 => {
                std::thread::yield_now();
                std::thread::yield_now();
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_permutation_and_seed_sensitive() {
        for n in [0usize, 1, 2, 17, 100] {
            for seed in [1u64, 7, 0xdead_beef] {
                let p = permutation(n, seed);
                let mut sorted = p.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "n={n} seed={seed}");
                assert_eq!(p, permutation(n, seed), "deterministic in (n, seed)");
            }
        }
        assert_ne!(permutation(100, 1), permutation(100, 2));
        assert_ne!(permutation(100, 1), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sched_seed_override_roundtrips() {
        set_sched(Some(41));
        assert_eq!(sched_seed(), Some(41));
        set_sched(Some(0));
        assert_eq!(sched_seed(), None);
        set_sched(Some(7));
        assert_eq!(sched_seed(), Some(7));
        set_sched(None);
        assert_eq!(sched_seed(), None);
    }
}
