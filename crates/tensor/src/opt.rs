//! Verified optimizing pass pipeline over the tape IR.
//!
//! [`optimize`] compiles a built tape ([`crate::Graph`]) into a [`TapePlan`]
//! — a compact, replayable program — through three classic passes driven by
//! the analyses in [`crate::dataflow`]:
//!
//! 1. **Constant folding**: nodes that do not depend on any designated
//!    *input* (model parameters, the poisoning batch) are materialized as
//!    constants from their recorded values; replay never recomputes them.
//! 2. **Common-subexpression elimination**: structural hashing of
//!    `(op, canonical operands, scalar/size payloads)` merges nodes that
//!    provably compute the same value (all tape ops are pure), and equal
//!    constants are interned by value. The gradient builder is a prolific
//!    duplicator — `transpose(x)` appears once per unrolled SGD step of the
//!    PACE hypergradient, every step re-creates the same `1.0`/`0.0`
//!    scalars — so this pass carries most of the node reduction.
//! 3. **Dead-node elimination**: only ancestors of the requested outputs
//!    survive, including nodes orphaned by folding and merging.
//!
//! The surviving steps are then laid onto a **liveness-driven buffer plan**:
//! each step writes into an [`Arena`] slot, and slots are recycled the
//! moment their value dies, so a replay allocates nothing after warm-up and
//! touches a working set bounded by the tape's peak live bytes rather than
//! its total bytes.
//!
//! Soundness is *checked, not assumed*: [`TapePlan::verify`] replays the
//! plan and compares every requested output against the value eager
//! execution recorded.
//!
//! No training path runs a plan: eager execution already produced every
//! value. The compiler is an offline tool — `xtask tape-report` optimizes and
//! verifies the real tape shapes, and perfbench's tensor probe times a
//! profiled replay of the hypergradient.

use crate::dataflow::{self, expr_key, ExprKey};
use crate::grad::op_inputs;
use crate::graph::{Graph, Op, Var};
use crate::matrix::Matrix;
use std::collections::HashMap;

/// What one plan node is.
enum PlanKind {
    /// A materialized value (leaf, designated input, or folded subgraph).
    Const(Matrix),
    /// An op to execute; operand [`Var`]s are *plan* indices, `buffer` is
    /// the arena slot the result is written to.
    Step { op: Op, buffer: usize },
}

struct PlanNode {
    kind: PlanKind,
    shape: (usize, usize),
}

impl PlanNode {
    /// Arena slot this node writes — `None` for constants.
    fn write_buffer(&self) -> Option<usize> {
        match &self.kind {
            PlanKind::Const(_) => None,
            PlanKind::Step { buffer, .. } => Some(*buffer),
        }
    }

    /// Plan indices this node reads: a step's operands, none for constants.
    fn inputs(&self) -> Vec<Var> {
        match &self.kind {
            PlanKind::Const(_) => Vec::new(),
            PlanKind::Step { op, .. } => op_inputs(op),
        }
    }
}

/// Everything the pipeline measured, for reports and acceptance gates.
#[derive(Clone, Debug, Default)]
pub struct OptStats {
    /// Caller-supplied label of the graph-construction site.
    pub context: String,
    /// Nodes on the original tape.
    pub nodes_before: usize,
    /// Original nodes reachable from the requested outputs.
    pub reachable_before: usize,
    /// Nodes in the optimized plan (constants + steps).
    pub nodes_after: usize,
    /// Plan nodes that are executed ops (the rest are constants).
    pub steps_after: usize,
    /// Non-leaf nodes materialized as constants by folding.
    pub folded: usize,
    /// Nodes merged into an earlier structurally identical node.
    pub cse_merged: usize,
    /// Nodes dropped as dead (unreachable, or orphaned by fold/CSE).
    pub dead_removed: usize,
    /// Estimated FLOPs to execute the reachable original tape.
    pub flops_before: u64,
    /// Estimated FLOPs to execute the plan's steps.
    pub flops_after: u64,
    /// Peak live bytes of the original tape (alloc at def, free at last use).
    pub peak_live_bytes_before: usize,
    /// Plan working set: arena buffer bytes plus resident constant bytes.
    pub peak_live_bytes_after: usize,
    /// Number of arena buffers the plan's steps share.
    pub buffers: usize,
    /// Op histogram of the reachable original tape, most frequent first.
    pub op_histogram: Vec<(&'static str, usize)>,
}

impl OptStats {
    /// Percentage of tape nodes the pipeline removed.
    pub fn node_reduction_pct(&self) -> f64 {
        if self.nodes_before == 0 {
            0.0
        } else {
            100.0 * (self.nodes_before - self.nodes_after) as f64 / self.nodes_before as f64
        }
    }

    /// Renders the stats as a human-readable multi-line report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== tape opt: {} == {} -> {} nodes (-{:.1}%), {} steps",
            self.context,
            self.nodes_before,
            self.nodes_after,
            self.node_reduction_pct(),
            self.steps_after,
        );
        let _ = writeln!(
            out,
            "   passes: fold {} | cse {} | dce {} (reachable {}/{})",
            self.folded,
            self.cse_merged,
            self.dead_removed,
            self.reachable_before,
            self.nodes_before,
        );
        let _ = writeln!(
            out,
            "   est flops: {} -> {} | peak live: {:.1} KiB -> {:.1} KiB | {} arena buffer(s)",
            self.flops_before,
            self.flops_after,
            self.peak_live_bytes_before as f64 / 1024.0,
            self.peak_live_bytes_after as f64 / 1024.0,
            self.buffers,
        );
        let top: Vec<String> = self
            .op_histogram
            .iter()
            .take(10)
            .map(|(name, n)| format!("{name}\u{00d7}{n}"))
            .collect();
        let _ = writeln!(out, "   ops: {}", top.join(" "));
        out
    }
}

/// One row of a profiled replay ([`TapePlan::replay_profiled`]): an op
/// family's measured replay time joined against the `dataflow` static cost
/// model, aggregated over every executed step of that family.
#[derive(Clone, Debug)]
pub struct OpProfile {
    /// Op family name (as in [`OptStats::op_histogram`]).
    pub op: &'static str,
    /// Steps of this family the replay executed.
    pub count: u64,
    /// Modeled FLOPs across those steps ([`dataflow::node_cost`] weights).
    pub flops: u64,
    /// Modeled output bytes across those steps.
    pub out_bytes: u64,
    /// Measured wall time across those steps, nanoseconds.
    pub measured_ns: u64,
}

/// Recycled execution buffers for [`TapePlan::replay`]. Keep one per
/// context and replays allocate nothing once every buffer has been sized.
#[derive(Default)]
pub struct Arena {
    buffers: Vec<Matrix>,
}

impl Arena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A compiled, replayable form of (part of) a tape: the optimized program
/// produced by [`optimize`]. Replaying executes only the surviving steps,
/// writing into recycled [`Arena`] buffers.
pub struct TapePlan {
    nodes: Vec<PlanNode>,
    /// Plan index of each requested output.
    outputs: Vec<usize>,
    /// Original tape index of each requested output (for [`TapePlan::verify`]).
    orig_outputs: Vec<usize>,
    n_buffers: usize,
    stats: OptStats,
}

impl TapePlan {
    /// The pipeline's measurements.
    pub fn stats(&self) -> &OptStats {
        &self.stats
    }

    /// Number of requested outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Proves the plan's arena assignment race-free: no slot is handed to a
    /// step while a previous tenant's value is still live (see
    /// [`dataflow::check_slot_interference`] for the exact condition). This
    /// is the static half of the concurrency-safety story: it guarantees
    /// that [`TapePlan::replay`]'s take-out-the-destination write borrow can
    /// never alias a live operand, for any chunk grid the step's internal
    /// fan-out may choose. `xtask tape-report` runs it over the real tapes.
    ///
    /// # Errors
    /// Returns every colliding slot pair when the assignment is dirty.
    pub fn check_interference(
        &self,
    ) -> Result<dataflow::InterferenceStats, Vec<dataflow::SlotInterference>> {
        let mut last_use: Vec<usize> = (0..self.nodes.len()).collect();
        for (j, node) in self.nodes.iter().enumerate() {
            for inp in node.inputs() {
                last_use[inp.index()] = last_use[inp.index()].max(j);
            }
        }
        for &o in &self.outputs {
            last_use[o] = usize::MAX;
        }
        let steps: Vec<dataflow::SlotStep> = self
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(j, node)| {
                node.write_buffer().map(|slot| dataflow::SlotStep {
                    step: j,
                    slot,
                    last_use: last_use[j],
                })
            })
            .collect();
        dataflow::check_slot_interference(&steps)
    }

    /// Executes every step in order, writing results into `arena`.
    pub fn replay(&self, arena: &mut Arena) {
        if arena.buffers.len() < self.n_buffers {
            arena
                .buffers
                .resize_with(self.n_buffers, || Matrix::zeros(0, 0));
        }
        for node in &self.nodes {
            let PlanKind::Step { op, buffer } = &node.kind else {
                continue;
            };
            // The buffer plan guarantees the destination never aliases a
            // live operand, so it can be taken out for the write borrow.
            let mut dst = std::mem::replace(&mut arena.buffers[*buffer], Matrix::zeros(0, 0));
            self.eval_into(arena, op, &mut dst);
            arena.buffers[*buffer] = dst;
        }
        pace_trace::REPLAY_NODE_VISITS.add(self.stats.steps_after as u64);
    }

    /// [`TapePlan::replay`] with per-op timing: every executed step is timed
    /// and aggregated by op family, with the `dataflow` static cost model's
    /// FLOP/byte estimate alongside — the join `xtask trace-report` uses to
    /// surface cost-model-vs-reality divergences. Rows are emitted to the
    /// trace ([`pace_trace::emit_op_profile`]) under the plan's context and
    /// returned sorted by measured time, descending.
    ///
    /// Timing is per *step family*, not per element, so the numbers carry
    /// overhead of ~one `Instant` read per step; use `replay` in hot loops.
    pub fn replay_profiled(&self, arena: &mut Arena) -> Vec<OpProfile> {
        if arena.buffers.len() < self.n_buffers {
            arena
                .buffers
                .resize_with(self.n_buffers, || Matrix::zeros(0, 0));
        }
        // BTreeMap keyed by op name: deterministic aggregation order.
        let mut rows: std::collections::BTreeMap<&'static str, OpProfile> =
            std::collections::BTreeMap::new();
        for node in &self.nodes {
            let PlanKind::Step { op, buffer } = &node.kind else {
                continue;
            };
            let name = op.name();
            let mut dst = std::mem::replace(&mut arena.buffers[*buffer], Matrix::zeros(0, 0));
            let t0 = std::time::Instant::now();
            self.eval_into(arena, op, &mut dst);
            let ns = t0.elapsed().as_nanos() as u64;
            arena.buffers[*buffer] = dst;
            let cost = self.step_cost(op, node.shape);
            let row = rows.entry(name).or_insert(OpProfile {
                op: name,
                count: 0,
                flops: 0,
                out_bytes: 0,
                measured_ns: 0,
            });
            row.count += 1;
            row.flops += cost.flops;
            row.out_bytes += cost.out_bytes as u64;
            row.measured_ns += ns;
        }
        pace_trace::REPLAY_NODE_VISITS.add(self.stats.steps_after as u64);
        let mut out: Vec<OpProfile> = rows.into_values().collect();
        out.sort_by(|a, b| b.measured_ns.cmp(&a.measured_ns).then(a.op.cmp(b.op)));
        for row in &out {
            pace_trace::emit_op_profile(
                &self.stats.context,
                row.op,
                row.count,
                row.flops,
                row.out_bytes,
                row.measured_ns,
            );
        }
        out
    }

    /// Static cost of one plan step, mirroring [`dataflow::node_cost`] but
    /// reading shapes from plan nodes (operand [`Var`]s are plan indices).
    fn step_cost(&self, op: &Op, out_shape: (usize, usize)) -> dataflow::Cost {
        let out = (out_shape.0 * out_shape.1) as u64;
        let in_len = |x: Var| {
            let (r, c) = self.nodes[x.index()].shape;
            (r * c) as u64
        };
        let flops = match *op {
            Op::Leaf => 0,
            Op::Sigmoid(_)
            | Op::Tanh(_)
            | Op::Exp(_)
            | Op::Ln(_)
            | Op::Sqrt(_)
            | Op::PowScalar(..) => out * dataflow::TRANSCENDENTAL_FLOPS,
            Op::MatMul(a, b) => {
                let (n, k) = self.nodes[a.index()].shape;
                let m = self.nodes[b.index()].shape.1;
                2 * (n * k * m) as u64
            }
            Op::Transpose(a)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::SumRows(a)
            | Op::MeanRows(a)
            | Op::SumCols(a) => in_len(a),
            // Everything else (elementwise arithmetic, broadcasts, moves)
            // costs one flop per output element, as in the dataflow model.
            _ => out,
        };
        dataflow::Cost {
            flops,
            out_bytes: (out_shape.0 * out_shape.1) * size_of::<f32>(),
        }
    }

    /// Value of the `k`-th requested output after [`TapePlan::replay`].
    pub fn output_value<'a>(&'a self, arena: &'a Arena, k: usize) -> &'a Matrix {
        self.node_value(arena, self.outputs[k])
    }

    fn node_value<'a>(&'a self, arena: &'a Arena, idx: usize) -> &'a Matrix {
        match &self.nodes[idx].kind {
            PlanKind::Const(m) => m,
            PlanKind::Step { buffer, .. } => &arena.buffers[*buffer],
        }
    }

    /// Replays the plan and compares every output against the value the
    /// eager execution recorded on `g`, within absolute-relative tolerance
    /// `tol` (see [`VERIFY_TOL`]). This is the soundness harness
    /// `xtask tape-report` and the acceptance tests run.
    ///
    /// # Errors
    /// Returns a description of the first mismatching output element.
    pub fn verify(&self, g: &Graph, tol: f32) -> Result<(), String> {
        let mut arena = Arena::new();
        self.replay(&mut arena);
        for (k, &orig) in self.orig_outputs.iter().enumerate() {
            let want = g.value(Var::from_index(orig));
            let got = self.output_value(&arena, k);
            if want.shape() != got.shape() {
                return Err(format!(
                    "output {k} (tape n{orig}): replayed shape {:?} != recorded {:?}",
                    got.shape(),
                    want.shape()
                ));
            }
            for (i, (&a, &b)) in got.data().iter().zip(want.data()).enumerate() {
                if !close(a, b, tol) {
                    return Err(format!(
                        "output {k} (tape n{orig}) element {i}: replayed {a} vs recorded {b} \
                         (tol {tol})"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Executes one remapped op, reading operands from constants or arena
    /// buffers and writing the result into `dst` in place.
    fn eval_into(&self, arena: &Arena, op: &Op, dst: &mut Matrix) {
        let v = |x: Var| self.node_value(arena, x.index());
        match *op {
            Op::Leaf => unreachable!("leaves are materialized as plan constants"),
            Op::Add(a, b) => ew2(dst, v(a), v(b), |x, y| x + y),
            Op::Sub(a, b) => ew2(dst, v(a), v(b), |x, y| x - y),
            Op::Mul(a, b) => ew2(dst, v(a), v(b), |x, y| x * y),
            Op::Div(a, b) => ew2(dst, v(a), v(b), |x, y| x / y),
            Op::Maximum(a, b) => ew2(dst, v(a), v(b), f32::max),
            Op::Minimum(a, b) => ew2(dst, v(a), v(b), f32::min),
            Op::Neg(a) => ew1(dst, v(a), |x| -x),
            Op::AddScalar(a, c) => ew1(dst, v(a), |x| x + c),
            Op::MulScalar(a, c) => ew1(dst, v(a), |x| x * c),
            Op::PowScalar(a, p) => ew1(dst, v(a), |x| x.powf(p)),
            Op::Sigmoid(a) => ew1(dst, v(a), |x| 1.0 / (1.0 + (-x).exp())),
            Op::Tanh(a) => ew1(dst, v(a), f32::tanh),
            Op::Relu(a) => ew1(dst, v(a), |x| x.max(0.0)),
            Op::Exp(a) => ew1(dst, v(a), f32::exp),
            Op::Ln(a) => ew1(dst, v(a), f32::ln),
            Op::Sqrt(a) => ew1(dst, v(a), f32::sqrt),
            Op::Abs(a) => ew1(dst, v(a), f32::abs),
            Op::MatMul(a, b) => matmul_into(dst, v(a), v(b)),
            Op::Transpose(a) => crate::matrix::transpose_into(dst, v(a)),
            Op::SumAll(a) => {
                let s: f32 = v(a).data().iter().sum();
                dst.reset_shape(1, 1);
                dst.data_mut()[0] = s;
            }
            Op::MeanAll(a) => {
                let m = v(a);
                dst.reset_shape(1, 1);
                dst.data_mut()[0] = m.mean();
            }
            Op::SumRows(a) => {
                let m = v(a);
                dst.reset_shape(1, m.cols());
                dst.data_mut().fill(0.0);
                for r in 0..m.rows() {
                    for (o, &x) in dst.data_mut().iter_mut().zip(m.row_slice(r)) {
                        *o += x;
                    }
                }
            }
            Op::MeanRows(a) => {
                let m = v(a);
                let n = m.rows() as f32;
                dst.reset_shape(1, m.cols());
                dst.data_mut().fill(0.0);
                for r in 0..m.rows() {
                    for (o, &x) in dst.data_mut().iter_mut().zip(m.row_slice(r)) {
                        *o += x;
                    }
                }
                for o in dst.data_mut() {
                    *o /= n;
                }
            }
            Op::RepeatRows(a, n) => {
                let m = v(a);
                let c = m.cols();
                dst.reset_shape(n, c);
                for r in 0..n {
                    dst.data_mut()[r * c..(r + 1) * c].copy_from_slice(m.data());
                }
            }
            Op::BroadcastScalar(a, r, c) => {
                let s = v(a).as_scalar();
                dst.reset_shape(r, c);
                dst.data_mut().fill(s);
            }
            Op::AddRow(a, row) => {
                let (m, rv) = (v(a), v(row));
                let (n, c) = m.shape();
                dst.reset_shape(n, c);
                for i in 0..n {
                    let base = i * c;
                    for j in 0..c {
                        dst.data_mut()[base + j] = m.data()[base + j] + rv.data()[j];
                    }
                }
            }
            Op::MulRow(a, row) => {
                let (m, rv) = (v(a), v(row));
                let (n, c) = m.shape();
                dst.reset_shape(n, c);
                for i in 0..n {
                    let base = i * c;
                    for j in 0..c {
                        dst.data_mut()[base + j] = m.data()[base + j] * rv.data()[j];
                    }
                }
            }
            Op::MulCol(a, col) => {
                let (m, cv) = (v(a), v(col));
                let (n, c) = m.shape();
                dst.reset_shape(n, c);
                for i in 0..n {
                    let f = cv.data()[i];
                    let base = i * c;
                    for j in 0..c {
                        dst.data_mut()[base + j] = m.data()[base + j] * f;
                    }
                }
            }
            Op::SumCols(a) => {
                let m = v(a);
                dst.reset_shape(m.rows(), 1);
                for r in 0..m.rows() {
                    dst.data_mut()[r] = m.row_slice(r).iter().sum();
                }
            }
            Op::RepeatCols(a, d) => {
                let m = v(a);
                let n = m.rows();
                dst.reset_shape(n, d);
                for r in 0..n {
                    let x = m.data()[r];
                    dst.data_mut()[r * d..(r + 1) * d].fill(x);
                }
            }
            Op::ConcatCols(ref parts) => {
                let mats: Vec<&Matrix> = parts.iter().map(|&p| v(p)).collect();
                let rows = mats[0].rows();
                let cols: usize = mats.iter().map(|m| m.cols()).sum();
                dst.reset_shape(rows, cols);
                let mut cursor = 0;
                for r in 0..rows {
                    for m in &mats {
                        let w = m.cols();
                        dst.data_mut()[cursor..cursor + w].copy_from_slice(m.row_slice(r));
                        cursor += w;
                    }
                }
            }
            Op::ConcatRows(ref parts) => {
                let mats: Vec<&Matrix> = parts.iter().map(|&p| v(p)).collect();
                let cols = mats[0].cols();
                let rows: usize = mats.iter().map(|m| m.rows()).sum();
                dst.reset_shape(rows, cols);
                let mut cursor = 0;
                for m in &mats {
                    dst.data_mut()[cursor..cursor + m.data().len()].copy_from_slice(m.data());
                    cursor += m.data().len();
                }
            }
            Op::SliceCols(a, start, end) => {
                let m = v(a);
                let w = end - start;
                dst.reset_shape(m.rows(), w);
                for r in 0..m.rows() {
                    dst.data_mut()[r * w..(r + 1) * w].copy_from_slice(&m.row_slice(r)[start..end]);
                }
            }
            Op::SliceRows(a, start, end) => {
                let m = v(a);
                let c = m.cols();
                dst.reset_shape(end - start, c);
                dst.data_mut()
                    .copy_from_slice(&m.data()[start * c..end * c]);
            }
        }
    }
}

fn ew1(dst: &mut Matrix, a: &Matrix, f: impl Fn(f32) -> f32) {
    dst.reset_shape(a.rows(), a.cols());
    for (o, &x) in dst.data_mut().iter_mut().zip(a.data()) {
        *o = f(x);
    }
}

fn ew2(dst: &mut Matrix, a: &Matrix, b: &Matrix, f: impl Fn(f32, f32) -> f32) {
    debug_assert_eq!(a.shape(), b.shape());
    dst.reset_shape(a.rows(), a.cols());
    for ((o, &x), &y) in dst.data_mut().iter_mut().zip(a.data()).zip(b.data()) {
        *o = f(x, y);
    }
}

/// The replay interpreter shares [`crate::matrix::matmul_into`] — the one
/// blocked, pool-parallel, NaN-propagating kernel — with eager execution,
/// so replayed values are bit-identical to `Matrix::matmul` at every
/// `PACE_THREADS` setting.
fn matmul_into(dst: &mut Matrix, a: &Matrix, b: &Matrix) {
    crate::matrix::matmul_into(dst, a, b);
}

fn close(a: f32, b: f32, tol: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()) || {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }
}

// ---- the pipeline -----------------------------------------------------------

/// Tolerance [`TapePlan::verify`] callers check optimized replay within.
pub const VERIFY_TOL: f32 = 1e-5;

/// Compiles the sub-tape that computes `outputs` into a [`TapePlan`],
/// running the full pipeline: fold, CSE, DCE and buffer reuse.
///
/// `inputs` are the nodes the caller considers *variable* (parameters, the
/// poisoning batch): they and everything downstream of them stay executable
/// steps; everything else is constant-foldable. Replay reproduces the
/// recorded execution — it is a re-execution of the same values, cheaper by
/// whatever the passes removed, not an evaluation at new inputs.
pub fn optimize(g: &Graph, outputs: &[Var], inputs: &[Var], context: &str) -> TapePlan {
    let n = g.len();
    let mut is_input = vec![false; n];
    for v in inputs {
        if v.index() < n {
            is_input[v.index()] = true;
        }
    }

    // Reachability (the DCE frontier) and the pre-pass measurements.
    let live = dataflow::liveness(g, outputs);
    let reachable_count = live.reachable.iter().filter(|&&r| r).count();
    let mut histogram: HashMap<&'static str, usize> = HashMap::new();
    let cost_before = dataflow::tape_cost(g, outputs);
    for i in 0..n {
        if live.reachable[i] {
            *histogram
                .entry(g.op(Var::from_index(i)).name())
                .or_insert(0) += 1;
        }
    }
    let mut op_histogram: Vec<(&'static str, usize)> = histogram.into_iter().collect();
    op_histogram.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));

    // Forward canonicalization: fold + CSE in one pass over the kept nodes.
    // `canon[i]` is the virtual-plan index original node `i` resolved to.
    enum VKind {
        Const(Matrix),
        Step(Op),
    }
    let mut vnodes: Vec<(VKind, (usize, usize), usize)> = Vec::new(); // kind, shape, orig id
    let mut canon: Vec<usize> = vec![usize::MAX; n];
    let mut varying = vec![false; n];
    let mut expr_table: HashMap<ExprKey, usize> = HashMap::new();
    let mut const_table: HashMap<(usize, usize, Vec<u32>), usize> = HashMap::new();
    let mut folded = 0usize;
    let mut cse_merged = 0usize;

    for i in 0..n {
        if !live.reachable[i] {
            continue;
        }
        let var = Var::from_index(i);
        let op = g.op(var);
        let is_leaf = matches!(op, Op::Leaf);
        varying[i] = is_input[i] || (!is_leaf && op_inputs(op).iter().any(|x| varying[x.index()]));

        if is_leaf || !varying[i] {
            // Constant: a leaf (inputs included — replay re-executes the
            // recorded values), or a foldable input-independent subgraph.
            if !is_leaf {
                folded += 1;
            }
            let value = g.value(var).clone();
            if !is_input[i] {
                let key = (
                    value.rows(),
                    value.cols(),
                    value
                        .data()
                        .iter()
                        .map(|x| x.to_bits())
                        .collect::<Vec<u32>>(),
                );
                if let Some(&existing) = const_table.get(&key) {
                    cse_merged += 1;
                    canon[i] = existing;
                    continue;
                }
                const_table.insert(key, vnodes.len());
            }
            canon[i] = vnodes.len();
            let shape = value.shape();
            vnodes.push((VKind::Const(value), shape, i));
            continue;
        }

        // Executable step: remap operands, then hash-cons.
        let remapped = remap_op(op, &canon);
        if let Some(key) = expr_key(&remapped) {
            if let Some(&existing) = expr_table.get(&key) {
                cse_merged += 1;
                canon[i] = existing;
                continue;
            }
            expr_table.insert(key, vnodes.len());
        }
        canon[i] = vnodes.len();
        vnodes.push((VKind::Step(remapped), g.shape(var), i));
    }

    // Plan-level DCE: folding and merging orphan previously-emitted nodes.
    let v_outputs: Vec<usize> = outputs.iter().map(|o| canon[o.index()]).collect();
    let mut v_keep = vec![false; vnodes.len()];
    let mut stack: Vec<usize> = v_outputs.clone();
    while let Some(j) = stack.pop() {
        if v_keep[j] {
            continue;
        }
        v_keep[j] = true;
        if let (VKind::Step(op), ..) = &vnodes[j] {
            for inp in op_inputs(op) {
                if !v_keep[inp.index()] {
                    stack.push(inp.index());
                }
            }
        }
    }

    // Compact into the final plan, remapping operands once more.
    let mut final_of: Vec<usize> = vec![usize::MAX; vnodes.len()];
    let mut nodes: Vec<PlanNode> = Vec::new();
    let mut flops_after = 0u64;
    let mut const_bytes = 0usize;
    for (j, (kind, shape, orig)) in vnodes.into_iter().enumerate() {
        if !v_keep[j] {
            continue;
        }
        final_of[j] = nodes.len();
        match kind {
            VKind::Const(m) => {
                const_bytes += m.len() * size_of::<f32>();
                nodes.push(PlanNode {
                    kind: PlanKind::Const(m),
                    shape,
                });
            }
            VKind::Step(op) => {
                flops_after += dataflow::node_cost(g, Var::from_index(orig)).flops;
                let op = remap_op(&op, &final_of);
                nodes.push(PlanNode {
                    kind: PlanKind::Step {
                        op,
                        buffer: usize::MAX,
                    },
                    shape,
                });
            }
        }
    }
    let outputs_final: Vec<usize> = v_outputs.iter().map(|&j| final_of[j]).collect();

    // Liveness-driven buffer assignment over the final steps.
    let mut last_use: Vec<usize> = (0..nodes.len()).collect();
    for (j, node) in nodes.iter().enumerate() {
        for inp in node.inputs() {
            last_use[inp.index()] = last_use[inp.index()].max(j);
        }
    }
    for &o in &outputs_final {
        last_use[o] = usize::MAX;
    }
    let mut free: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
    let mut buffer_shapes: Vec<(usize, usize)> = Vec::new();
    for j in 0..nodes.len() {
        let shape = nodes[j].shape;
        if !matches!(nodes[j].kind, PlanKind::Const(_)) {
            let slot = free.get_mut(&shape).and_then(Vec::pop).unwrap_or_else(|| {
                buffer_shapes.push(shape);
                buffer_shapes.len() - 1
            });
            if let PlanKind::Step { buffer, .. } = &mut nodes[j].kind {
                *buffer = slot;
            }
        }
        // Release operands whose last use is this step (after assigning the
        // destination, so a dying operand's buffer is never the destination).
        let dying: Vec<usize> = {
            let mut d: Vec<usize> = nodes[j]
                .inputs()
                .iter()
                .map(|v| v.index())
                .filter(|&o| last_use[o] == j)
                .collect();
            d.sort_unstable();
            d.dedup();
            d
        };
        for o in dying {
            if let Some(buffer) = nodes[o].write_buffer() {
                free.entry(nodes[o].shape).or_default().push(buffer);
            }
        }
    }

    let steps_after = nodes
        .iter()
        .filter(|nd| !matches!(nd.kind, PlanKind::Const(_)))
        .count();
    let arena_bytes: usize = buffer_shapes
        .iter()
        .map(|(r, c)| r * c * size_of::<f32>())
        .sum();
    let nodes_after = nodes.len();
    let stats = OptStats {
        context: context.to_string(),
        nodes_before: n,
        reachable_before: reachable_count,
        nodes_after,
        steps_after,
        folded,
        cse_merged,
        dead_removed: n.saturating_sub(nodes_after + cse_merged),
        flops_before: cost_before.flops,
        flops_after,
        peak_live_bytes_before: live.peak_live_bytes,
        peak_live_bytes_after: arena_bytes + const_bytes,
        buffers: buffer_shapes.len(),
        op_histogram,
    };

    TapePlan {
        nodes,
        outputs: outputs_final,
        orig_outputs: outputs.iter().map(|o| o.index()).collect(),
        n_buffers: buffer_shapes.len(),
        stats,
    }
}

/// Rewrites an op's operand [`Var`]s through `map` (tape index → plan index).
fn remap_op(op: &Op, map: &[usize]) -> Op {
    let m = |v: Var| Var::from_index(map[v.index()]);
    match *op {
        Op::Leaf => Op::Leaf,
        Op::Add(a, b) => Op::Add(m(a), m(b)),
        Op::Sub(a, b) => Op::Sub(m(a), m(b)),
        Op::Mul(a, b) => Op::Mul(m(a), m(b)),
        Op::Div(a, b) => Op::Div(m(a), m(b)),
        Op::Neg(a) => Op::Neg(m(a)),
        Op::AddScalar(a, c) => Op::AddScalar(m(a), c),
        Op::MulScalar(a, c) => Op::MulScalar(m(a), c),
        Op::PowScalar(a, p) => Op::PowScalar(m(a), p),
        Op::MatMul(a, b) => Op::MatMul(m(a), m(b)),
        Op::Transpose(a) => Op::Transpose(m(a)),
        Op::Sigmoid(a) => Op::Sigmoid(m(a)),
        Op::Tanh(a) => Op::Tanh(m(a)),
        Op::Relu(a) => Op::Relu(m(a)),
        Op::Exp(a) => Op::Exp(m(a)),
        Op::Ln(a) => Op::Ln(m(a)),
        Op::Sqrt(a) => Op::Sqrt(m(a)),
        Op::Abs(a) => Op::Abs(m(a)),
        Op::Maximum(a, b) => Op::Maximum(m(a), m(b)),
        Op::Minimum(a, b) => Op::Minimum(m(a), m(b)),
        Op::SumAll(a) => Op::SumAll(m(a)),
        Op::MeanAll(a) => Op::MeanAll(m(a)),
        Op::SumRows(a) => Op::SumRows(m(a)),
        Op::MeanRows(a) => Op::MeanRows(m(a)),
        Op::RepeatRows(a, k) => Op::RepeatRows(m(a), k),
        Op::BroadcastScalar(a, r, c) => Op::BroadcastScalar(m(a), r, c),
        Op::AddRow(a, b) => Op::AddRow(m(a), m(b)),
        Op::MulRow(a, b) => Op::MulRow(m(a), m(b)),
        Op::MulCol(a, b) => Op::MulCol(m(a), m(b)),
        Op::SumCols(a) => Op::SumCols(m(a)),
        Op::RepeatCols(a, k) => Op::RepeatCols(m(a), k),
        Op::ConcatCols(ref parts) => Op::ConcatCols(parts.iter().map(|&p| m(p)).collect()),
        Op::ConcatRows(ref parts) => Op::ConcatRows(parts.iter().map(|&p| m(p)).collect()),
        Op::SliceCols(a, s, e) => Op::SliceCols(m(a), s, e),
        Op::SliceRows(a, s, e) => Op::SliceRows(m(a), s, e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replay_outputs(plan: &TapePlan) -> Vec<Matrix> {
        let mut arena = Arena::new();
        plan.replay(&mut arena);
        (0..plan.num_outputs())
            .map(|k| plan.output_value(&arena, k).clone())
            .collect()
    }

    #[test]
    fn dce_drops_dead_nodes() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::row(&[1.0, 2.0]));
        let _dead = g.exp(x);
        let _also_dead = g.tanh(x);
        let y = g.mul(x, x);
        let out = g.sum_all(y);
        let plan = optimize(&g, &[out], &[x], "test::dce");
        assert!(plan.stats().nodes_after < g.len());
        assert!(plan.stats().dead_removed >= 2, "{:?}", plan.stats());
        plan.verify(&g, VERIFY_TOL).expect("replay parity");
    }

    #[test]
    fn cse_merges_identical_expressions() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::row(&[0.5, 1.5]));
        let a = g.sigmoid(x);
        let b = g.sigmoid(x);
        let y = g.add(a, b);
        let out = g.sum_all(y);
        let plan = optimize(&g, &[out], &[x], "test::cse");
        assert!(plan.stats().cse_merged >= 1, "{:?}", plan.stats());
        plan.verify(&g, VERIFY_TOL).expect("replay parity");

        // Duplicated two-op chains canonicalize bottom-up: the second
        // chain's `exp` merges, and then so does its `mul_scalar` tail.
        let mut g = Graph::new();
        let x = g.leaf(Matrix::row(&[0.5, 1.5]));
        let a1 = g.exp(x);
        let b1 = g.mul_scalar(a1, 2.0);
        let a2 = g.exp(x);
        let b2 = g.mul_scalar(a2, 2.0);
        let y = g.add(b1, b2);
        let out = g.sum_all(y);
        let plan = optimize(&g, &[out], &[x], "test::cse_chain");
        assert_eq!(plan.stats().cse_merged, 2, "{:?}", plan.stats());
        plan.verify(&g, VERIFY_TOL).expect("replay parity");

        // Scalar payloads are part of the key: `* 2.0` vs `* 3.0` and
        // `+ 1.0` vs `+ 2.0` over the same operand never merge.
        let mut g = Graph::new();
        let x = g.leaf(Matrix::row(&[0.5, 1.5]));
        let m2 = g.mul_scalar(x, 2.0);
        let m3 = g.mul_scalar(x, 3.0);
        let p1 = g.add_scalar(x, 1.0);
        let p2 = g.add_scalar(x, 2.0);
        let m = g.add(m2, m3);
        let p = g.add(p1, p2);
        let y = g.add(m, p);
        let out = g.sum_all(y);
        let plan = optimize(&g, &[out], &[x], "test::cse_payload");
        assert_eq!(plan.stats().cse_merged, 0, "{:?}", plan.stats());
        plan.verify(&g, VERIFY_TOL).expect("replay parity");
    }

    #[test]
    fn cse_merges_across_add_row_broadcast() {
        // Two AddRow broadcasts of the same row onto the same matrix — the
        // broadcast op must participate in structural hashing, not only the
        // plain elementwise ops.
        let mut g = Graph::new();
        let m = g.leaf(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let row = g.leaf(Matrix::row(&[10., 20.]));
        let y1 = g.add_row(m, row);
        let y2 = g.add_row(m, row);
        let prod = g.mul(y1, y2);
        let out = g.sum_all(prod);
        let before_nodes = g.len();
        let plan = optimize(&g, &[out], &[m, row], "test::cse_add_row");
        assert!(plan.stats().cse_merged >= 1, "{:?}", plan.stats());
        assert!(plan.stats().nodes_after < before_nodes);
        plan.verify(&g, VERIFY_TOL).expect("replay parity");
    }

    #[test]
    fn folding_materializes_input_independent_subgraphs() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::row(&[1.0, 2.0]));
        let k1 = g.leaf(Matrix::row(&[3.0, 4.0]));
        let k2 = g.leaf(Matrix::row(&[5.0, 6.0]));
        let kprod = g.mul(k1, k2); // input-independent: folds
        let y = g.mul(x, kprod);
        let out = g.sum_all(y);
        let plan = optimize(&g, &[out], &[x], "test::fold");
        assert!(plan.stats().folded >= 1, "{:?}", plan.stats());
        // The folded product replaces the k1/k2 leaves entirely.
        assert!(plan.stats().nodes_after < g.len());
        plan.verify(&g, VERIFY_TOL).expect("replay parity");
    }

    #[test]
    fn constant_interning_merges_equal_leaves() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::row(&[1.0, 2.0]));
        let one_a = g.scalar(1.0);
        let one_b = g.scalar(1.0); // same value, separate leaf
        let sa = g.sum_all(x);
        let t1 = g.add(sa, one_a);
        let t2 = g.add(t1, one_b);
        let plan = optimize(&g, &[t2], &[x], "test::intern");
        assert!(plan.stats().cse_merged >= 1, "{:?}", plan.stats());
        plan.verify(&g, VERIFY_TOL).expect("replay parity");
    }

    #[test]
    fn inputs_are_never_merged_even_when_equal() {
        let mut g = Graph::new();
        let p = g.leaf(Matrix::row(&[1.0]));
        let q = g.leaf(Matrix::row(&[1.0])); // equal value, distinct input
        let s = g.add(p, q);
        let plan = optimize(&g, &[s], &[p, q], "test::inputs");
        // p and q must stay distinct plan nodes.
        assert_eq!(plan.stats().cse_merged, 0, "{:?}", plan.stats());
        plan.verify(&g, VERIFY_TOL).expect("replay parity");
    }

    #[test]
    fn buffer_plan_reuses_slots_on_chains() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(4, 4, vec![0.1; 16]));
        let mut h = x;
        for _ in 0..8 {
            h = g.sigmoid(h);
            h = g.add(h, x);
        }
        let out = g.sum_all(h);
        let plan = optimize(&g, &[out], &[x], "test::buffers");
        assert!(
            plan.stats().buffers < plan.stats().steps_after,
            "16 chained steps must share buffers: {:?}",
            plan.stats()
        );
        plan.verify(&g, VERIFY_TOL).expect("replay parity");
    }

    #[test]
    fn interference_check_clean_on_reusing_plan() {
        // Heavy slot reuse (chained same-shape steps) must still prove
        // interference-free: the allocator only frees a slot strictly after
        // its tenant's last use.
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(4, 4, vec![0.1; 16]));
        let mut h = x;
        for _ in 0..8 {
            h = g.sigmoid(h);
            h = g.add(h, x);
        }
        let out = g.sum_all(h);
        let plan = optimize(&g, &[out], &[x], "test::interference");
        let stats = plan.check_interference().expect("clean arena assignment");
        assert_eq!(stats.steps, plan.stats().steps_after);
        assert_eq!(stats.slots, plan.stats().buffers);
        assert!(
            stats.checked_pairs > 0,
            "a reusing plan must have reuse pairs to check: {stats:?}"
        );
    }

    #[test]
    fn interference_check_catches_seeded_overlap() {
        // Hand-build a plan whose second step takes slot 0 while the first
        // step's value is still live (step 2 reads it) — the fail-on-old-code
        // witness for the static checker.
        let shape = (1, 2);
        let nodes = vec![
            PlanNode {
                kind: PlanKind::Const(Matrix::row(&[1.0, 2.0])),
                shape,
            },
            PlanNode {
                kind: PlanKind::Step {
                    op: Op::Neg(Var::from_index(0)),
                    buffer: 0,
                },
                shape,
            },
            PlanNode {
                kind: PlanKind::Step {
                    op: Op::Neg(Var::from_index(1)),
                    buffer: 0,
                },
                shape,
            },
        ];
        let plan = TapePlan {
            nodes,
            outputs: vec![2],
            orig_outputs: vec![2],
            n_buffers: 1,
            stats: OptStats::default(),
        };
        let violations = plan.check_interference().expect_err("seeded overlap");
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].slot, 0);
        assert_eq!(violations[0].first.step, 1);
        assert_eq!(violations[0].second.step, 2);
        assert!(violations[0].to_string().contains("arena slot 0"));
    }

    #[test]
    fn replay_covers_whole_op_vocabulary() {
        // The same all-ops graph the auditor's closure test uses: every op
        // kind must round-trip through the interpreter bit-exactly.
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_vec(2, 3, vec![0.6, 1.1, 0.9, 1.4, 0.7, 1.2]));
        let b = g.leaf(Matrix::from_vec(2, 3, vec![1.3, 0.8, 1.6, 0.9, 1.1, 0.7]));
        let mut acc = g.add(a, b);
        acc = g.mul(acc, a);
        acc = g.sub(acc, b);
        acc = g.div(acc, b);
        acc = g.abs(acc);
        acc = g.add_scalar(acc, 1.0);
        acc = g.sqrt(acc);
        acc = g.ln(acc);
        acc = g.exp(acc);
        acc = g.sigmoid(acc);
        acc = g.tanh(acc);
        acc = g.relu(acc);
        acc = g.neg(acc);
        acc = g.mul_scalar(acc, 0.5);
        acc = g.pow_scalar(acc, 2.0);
        let w = g.leaf(Matrix::from_vec(3, 2, vec![0.4, 1.0, 0.8, 0.5, 1.2, 0.6]));
        let mm = g.matmul(acc, w);
        let mt = g.transpose(mm);
        let mx = g.maximum(mt, mt);
        let mn = g.minimum(mx, mt);
        let sr = g.sum_rows(mn);
        let mr = g.mean_rows(mn);
        let rep = g.repeat_rows(sr, 2);
        let ar = g.add_row(rep, mr);
        let mrow = g.mul_row(ar, mr);
        let sc = g.sum_cols(mrow);
        let mcol = g.mul_col(mrow, sc);
        let rc = g.repeat_cols(sc, 2);
        let cc = g.concat_cols(&[mcol, rc]);
        let cr = g.concat_rows(&[cc, cc]);
        let s1 = g.slice_cols(cr, 0, 2);
        let s2 = g.slice_rows(s1, 0, 2);
        let ma = g.mean_all(s2);
        let bs = g.broadcast_scalar(ma, 2, 2);
        let out = g.sum_all(bs);
        let grads = g.grad(out, &[a, b]);
        let gsum0 = g.sum_all(grads[0]);
        let gsum1 = g.sum_all(grads[1]);
        let gtot = g.add(gsum0, gsum1);
        let grad2 = g.grad(gtot, &[a, b]);

        let mut outputs = vec![out, grads[0], grads[1]];
        outputs.extend(&grad2);
        let plan = optimize(&g, &outputs, &[a, b], "test::vocabulary");
        plan.verify(&g, VERIFY_TOL).expect("replay parity");
        let vals = replay_outputs(&plan);
        assert_eq!(vals[0].shape(), (1, 1));
        assert_eq!(vals[1].shape(), g.shape(a));
        // Replays into a reused arena must stay stable.
        let mut arena = Arena::new();
        plan.replay(&mut arena);
        plan.replay(&mut arena);
        for (k, val) in vals.iter().enumerate() {
            assert_eq!(plan.output_value(&arena, k).data(), val.data());
        }
    }

    #[test]
    fn gradient_tape_optimizes_and_verifies() {
        // A miniature training-step tape: forward + first-order grads.
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(4, 3, vec![0.3; 12]));
        let w = g.leaf(Matrix::from_vec(3, 2, vec![0.5; 6]));
        let bias = g.leaf(Matrix::row(&[0.1, -0.2]));
        let h = g.matmul(x, w);
        let hb = g.add_row(h, bias);
        let s = g.sigmoid(hb);
        let loss = g.mean_all(s);
        let grads = g.grad(loss, &[w, bias]);
        let mut outputs = vec![loss];
        outputs.extend(&grads);
        let plan = optimize(&g, &outputs, &[w, bias], "test::gradtape");
        plan.verify(&g, VERIFY_TOL).expect("replay parity");
        assert!(plan.stats().nodes_after <= plan.stats().nodes_before);
        // The per-op profile reports only real op families, and its FLOPs
        // account for exactly the plan's steps.
        let rows = plan.replay_profiled(&mut Arena::new());
        for row in &rows {
            assert!(
                plan.stats()
                    .op_histogram
                    .iter()
                    .any(|&(op, _)| op == row.op),
                "profile row {:?} is not an op family of the tape",
                row.op
            );
        }
        let profiled_flops: u64 = rows.iter().map(|r| r.flops).sum();
        assert_eq!(profiled_flops, plan.stats().flops_after);
    }
}
