//! Dataflow analyses over the autograd tape IR.
//!
//! The tape ([`crate::Graph`]) is a pure, append-only SSA program: every node
//! is defined exactly once, operands always precede consumers, and node
//! indices double as topological order. That makes the classic compiler
//! analyses almost free, and this module computes the ones the optimizing
//! pass pipeline ([`crate::opt`]) is built on:
//!
//! * **Liveness** ([`liveness`]) — reverse-topological live intervals: the
//!   tape position at which each value dies, plus the peak number of bytes
//!   simultaneously live under an alloc-at-def / free-at-last-use discipline
//!   (the memory high-water mark a buffer-reusing executor can reach);
//! * **Structural expression keys** ([`ExprKey`]) — hashing of `(op,
//!   operands, scalar/size payloads)` so that equal keys compute equal
//!   values, the substrate of common-subexpression elimination;
//! * **Static cost model** ([`node_cost`], [`tape_cost`]) — estimated FLOPs
//!   and output bytes per node from operand shapes alone.
//!
//! All analyses are read-only; none require executing the tape.

use crate::grad::op_inputs;
use crate::graph::{Graph, Op, Var};
use std::collections::HashMap;

/// Live intervals of every tape value relative to a set of root outputs.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// Whether each node is an ancestor of (or is) one of the outputs.
    pub reachable: Vec<bool>,
    /// Tape index of the last consumer of each reachable node; outputs (and
    /// only outputs) carry `usize::MAX` — they stay live past the end.
    /// Unreachable nodes carry their own index (they die at definition).
    pub last_use: Vec<usize>,
    /// Peak bytes simultaneously live when values are materialized at their
    /// defining index and freed right after their last use.
    pub peak_live_bytes: usize,
}

/// Computes [`Liveness`] for the sub-tape reachable from `outputs`.
pub fn liveness(g: &Graph, outputs: &[Var]) -> Liveness {
    let n = g.len();
    let mut reachable = vec![false; n];
    let mut stack: Vec<Var> = outputs.iter().copied().filter(|v| v.index() < n).collect();
    while let Some(v) = stack.pop() {
        if reachable[v.index()] {
            continue;
        }
        reachable[v.index()] = true;
        for inp in op_inputs(g.op(v)) {
            if !reachable[inp.index()] {
                stack.push(inp);
            }
        }
    }

    let mut last_use: Vec<usize> = (0..n).collect();
    for (i, &r) in reachable.iter().enumerate() {
        if !r {
            continue;
        }
        for inp in op_inputs(g.op(Var::from_index(i))) {
            last_use[inp.index()] = last_use[inp.index()].max(i);
        }
    }
    for out in outputs {
        if out.index() < n {
            last_use[out.index()] = usize::MAX;
        }
    }

    // Forward sweep: allocate at def, free after last use.
    let mut live_bytes = 0usize;
    let mut peak = 0usize;
    let mut frees: HashMap<usize, Vec<usize>> = HashMap::new();
    for i in 0..n {
        if !reachable[i] {
            continue;
        }
        live_bytes += value_bytes(g, Var::from_index(i));
        peak = peak.max(live_bytes);
        if last_use[i] != usize::MAX {
            frees.entry(last_use[i]).or_default().push(i);
        }
        if let Some(dead) = frees.remove(&i) {
            for d in dead {
                live_bytes -= value_bytes(g, Var::from_index(d));
            }
        }
    }

    Liveness {
        reachable,
        last_use,
        peak_live_bytes: peak,
    }
}

fn value_bytes(g: &Graph, v: Var) -> usize {
    let (r, c) = g.shape(v);
    r * c * size_of::<f32>()
}

// ---- structural expression keys --------------------------------------------

/// Structural identity of a non-leaf node: op kind, canonical operand ids,
/// and every scalar/size payload the op carries. Two nodes with equal keys
/// compute equal values (all tape ops are pure and deterministic).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ExprKey {
    name: &'static str,
    operands: Vec<usize>,
    /// `f32` payloads as raw bits (exact identity, no NaN/−0 hazards).
    scalars: Vec<u32>,
    sizes: Vec<usize>,
}

/// Builds the structural key of a non-leaf op over its operand indices as
/// they stand (CSE keys ops already remapped onto canonical plan nodes).
/// Returns `None` for [`Op::Leaf`] — leaf identity is the stored *value*,
/// not structure, and is interned separately by the passes.
pub(crate) fn expr_key(op: &Op) -> Option<ExprKey> {
    let mut key = ExprKey {
        name: op.name(),
        operands: op_inputs(op).iter().map(|v| v.index()).collect(),
        scalars: Vec::new(),
        sizes: Vec::new(),
    };
    match *op {
        Op::Leaf => return None,
        // Structure fully captured by name + operands.
        Op::Add(..)
        | Op::Sub(..)
        | Op::Mul(..)
        | Op::Div(..)
        | Op::Neg(_)
        | Op::MatMul(..)
        | Op::Transpose(_)
        | Op::Sigmoid(_)
        | Op::Tanh(_)
        | Op::Relu(_)
        | Op::Exp(_)
        | Op::Ln(_)
        | Op::Sqrt(_)
        | Op::Abs(_)
        | Op::Maximum(..)
        | Op::Minimum(..)
        | Op::SumAll(_)
        | Op::MeanAll(_)
        | Op::SumRows(_)
        | Op::MeanRows(_)
        | Op::AddRow(..)
        | Op::MulRow(..)
        | Op::MulCol(..)
        | Op::SumCols(_)
        | Op::ConcatCols(_)
        | Op::ConcatRows(_) => {}
        // Scalar payloads.
        Op::AddScalar(_, c) | Op::MulScalar(_, c) | Op::PowScalar(_, c) => {
            key.scalars.push(c.to_bits());
        }
        // Size payloads.
        Op::RepeatRows(_, n) | Op::RepeatCols(_, n) => key.sizes.push(n),
        Op::BroadcastScalar(_, r, c) => key.sizes.extend([r, c]),
        Op::SliceCols(_, s, e) | Op::SliceRows(_, s, e) => key.sizes.extend([s, e]),
    }
    Some(key)
}

// ---- static cost model ------------------------------------------------------

/// Estimated execution cost of one node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cost {
    /// Floating-point operations (moves count as 1 per element; the four
    /// transcendental families are weighted [`TRANSCENDENTAL_FLOPS`] each).
    pub flops: u64,
    /// Bytes of the node's output value.
    pub out_bytes: usize,
}

/// Per-element weight charged for `exp`/`ln`/`sqrt`/`powf`/`sigmoid`/`tanh`.
pub const TRANSCENDENTAL_FLOPS: u64 = 8;

/// Static cost of computing node `v`, derived from operand shapes alone.
pub fn node_cost(g: &Graph, v: Var) -> Cost {
    let (r, c) = g.shape(v);
    let out = (r * c) as u64;
    let in_len = |x: Var| {
        let (ir, ic) = g.shape(x);
        (ir * ic) as u64
    };
    let flops = match *g.op(v) {
        Op::Leaf => 0,
        Op::Add(..)
        | Op::Sub(..)
        | Op::Mul(..)
        | Op::Div(..)
        | Op::Maximum(..)
        | Op::Minimum(..)
        | Op::Neg(_)
        | Op::AddScalar(..)
        | Op::MulScalar(..)
        | Op::Relu(_)
        | Op::Abs(_)
        | Op::AddRow(..)
        | Op::MulRow(..)
        | Op::MulCol(..) => out,
        Op::Sigmoid(_) | Op::Tanh(_) | Op::Exp(_) | Op::Ln(_) | Op::Sqrt(_) | Op::PowScalar(..) => {
            out * TRANSCENDENTAL_FLOPS
        }
        Op::MatMul(a, b) => {
            let (n, k) = g.shape(a);
            let m = g.shape(b).1;
            2 * (n * k * m) as u64
        }
        Op::Transpose(a) => in_len(a),
        Op::SumAll(a) | Op::MeanAll(a) | Op::SumRows(a) | Op::MeanRows(a) | Op::SumCols(a) => {
            in_len(a)
        }
        Op::RepeatRows(..) | Op::RepeatCols(..) | Op::BroadcastScalar(..) => out,
        Op::ConcatCols(_) | Op::ConcatRows(_) | Op::SliceCols(..) | Op::SliceRows(..) => out,
    };
    Cost {
        flops,
        out_bytes: (r * c) * size_of::<f32>(),
    }
}

/// Summed [`node_cost`] over the nodes reachable from `outputs`.
pub fn tape_cost(g: &Graph, outputs: &[Var]) -> Cost {
    let live = liveness(g, outputs);
    let mut total = Cost::default();
    for (i, &r) in live.reachable.iter().enumerate() {
        if r {
            let c = node_cost(g, Var::from_index(i));
            total.flops += c.flops;
            total.out_bytes += c.out_bytes;
        }
    }
    total
}

// ---- arena-slot interference ------------------------------------------------

/// One plan step's claim on an arena slot: the step writes `slot` at plan
/// index `step`, and the value it produces is last read at plan index
/// `last_use` (`usize::MAX` for plan outputs, which stay live past the end).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotStep {
    /// Plan index of the step that writes the slot.
    pub step: usize,
    /// Arena slot the step writes.
    pub slot: usize,
    /// Plan index of the last read of the produced value (`usize::MAX` for
    /// outputs).
    pub last_use: usize,
}

/// Two steps whose liveness intervals collide on one arena slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotInterference {
    /// The contested arena slot.
    pub slot: usize,
    /// The earlier writer, still live when the slot is reassigned.
    pub first: SlotStep,
    /// The later writer that takes the slot too early.
    pub second: SlotStep,
}

impl std::fmt::Display for SlotInterference {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "arena slot {} interference: step {} (live through {}) vs step {}",
            self.slot, self.first.step, self.first.last_use, self.second.step
        )
    }
}

/// Size of a clean interference check, for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InterferenceStats {
    /// Slot-writing steps examined.
    pub steps: usize,
    /// Distinct arena slots in use.
    pub slots: usize,
    /// Consecutive same-slot reuse pairs checked.
    pub checked_pairs: usize,
}

/// Proves the buffer-reuse arena assignment race-free: no arena slot is
/// handed to a step while a previous tenant of that slot is still live.
///
/// For two steps `s1 < s2` sharing a slot, safety requires
/// `last_use(s1) < s2` **strictly**: at `last_use(s1) == s2` the step would
/// read its operand out of the very buffer it is writing, and any overlap
/// beyond that clobbers a live value outright. Under that condition every
/// chunk grid a step's internal fan-out may choose is safe — each step owns
/// its destination slot exclusively for its whole execution, so intra-step
/// parallelism can never alias another live value. Plan outputs carry
/// `last_use == usize::MAX` and must never be reassigned at all.
///
/// # Errors
/// Returns every colliding pair (not just the first) when the assignment is
/// dirty.
pub fn check_slot_interference(
    steps: &[SlotStep],
) -> Result<InterferenceStats, Vec<SlotInterference>> {
    let mut by_slot: HashMap<usize, Vec<SlotStep>> = HashMap::new();
    for s in steps {
        by_slot.entry(s.slot).or_default().push(*s);
    }
    let mut stats = InterferenceStats {
        steps: steps.len(),
        slots: by_slot.len(),
        checked_pairs: 0,
    };
    let mut violations = Vec::new();
    for tenants in by_slot.values_mut() {
        tenants.sort_by_key(|s| s.step);
        for pair in tenants.windows(2) {
            stats.checked_pairs += 1;
            let (first, second) = (pair[0], pair[1]);
            if first.last_use >= second.step {
                violations.push(SlotInterference {
                    slot: first.slot,
                    first,
                    second,
                });
            }
        }
    }
    if violations.is_empty() {
        Ok(stats)
    } else {
        violations.sort_by_key(|v| (v.second.step, v.slot));
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn small_graph() -> (Graph, Var, Var, Var, Var) {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]));
        let w = g.leaf(Matrix::from_vec(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]));
        let h = g.matmul(x, w); // n2
        let s = g.sigmoid(h); // n3
        let out = g.sum_all(s); // n4
        (g, x, w, h, out)
    }

    #[test]
    fn liveness_intervals_and_peak() {
        let (g, x, _w, h, out) = small_graph();
        let live = liveness(&g, &[out]);
        assert!(live.reachable.iter().all(|&r| r));
        assert_eq!(live.last_use[x.index()], h.index());
        assert_eq!(live.last_use[out.index()], usize::MAX);
        // Peak must cover every co-live pair but stay below the whole tape.
        let all: usize = (0..g.len())
            .map(|i| g.value(Var::from_index(i)).len() * size_of::<f32>())
            .sum();
        assert!(live.peak_live_bytes > 0 && live.peak_live_bytes <= all);
    }

    #[test]
    fn liveness_marks_detached_nodes() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::row(&[1.0, 2.0]));
        let dead = g.neg(x);
        let y = g.mul(x, x);
        let out = g.sum_all(y);
        let live = liveness(&g, &[out]);
        assert!(!live.reachable[dead.index()]);
        assert!(live.reachable[y.index()]);
    }

    fn slot(step: usize, slot: usize, last_use: usize) -> SlotStep {
        SlotStep {
            step,
            slot,
            last_use,
        }
    }

    #[test]
    fn interference_clean_reuse_passes() {
        // Slot 0 is reused twice, each time strictly after the previous
        // tenant's last use; slot 1 holds an output and is never reused.
        let steps = [
            slot(0, 0, 1),
            slot(2, 0, 3),
            slot(4, 0, 5),
            slot(1, 1, usize::MAX),
        ];
        let stats = check_slot_interference(&steps).expect("clean assignment");
        assert_eq!(stats.steps, 4);
        assert_eq!(stats.slots, 2);
        assert_eq!(stats.checked_pairs, 2);
    }

    #[test]
    fn interference_catches_live_overlap_and_exact_touch() {
        // Step 5 takes slot 0 while step 0's value is live through step 7.
        let overlap = [slot(0, 0, 7), slot(5, 0, 6)];
        let v = check_slot_interference(&overlap).expect_err("overlap");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].slot, 0);
        assert_eq!((v[0].first.step, v[0].second.step), (0, 5));
        // Reassignment exactly at the last use is also unsafe: the new step
        // would read its operand out of the buffer it writes.
        let touch = [slot(0, 3, 4), slot(4, 3, 9)];
        assert_eq!(check_slot_interference(&touch).expect_err("touch").len(), 1);
        // An output slot (live forever) must never be reassigned.
        let output = [slot(0, 2, usize::MAX), slot(9, 2, 10)];
        assert_eq!(
            check_slot_interference(&output)
                .expect_err("output reuse")
                .len(),
            1
        );
    }

    #[test]
    fn cost_model_matmul_and_transcendentals() {
        let (g, _x, _w, h, out) = small_graph();
        assert_eq!(node_cost(&g, h).flops, 2 * 2 * 3 * 2);
        assert_eq!(node_cost(&g, h).out_bytes, 2 * 2 * 4);
        let sig = Var::from_index(h.index() + 1);
        assert_eq!(node_cost(&g, sig).flops, 4 * TRANSCENDENTAL_FLOPS);
        let total = tape_cost(&g, &[out]);
        assert!(total.flops >= 2 * 2 * 3 * 2 + 4 * TRANSCENDENTAL_FLOPS);
    }
}
