//! Property tests for the optimizing pass pipeline: on randomly built
//! tapes, the optimized replay must reproduce the eagerly recorded forward
//! value, the first-order gradient, and the gradient-of-the-gradient — the
//! three tape shapes the PACE attack actually differentiates — within
//! `1e-5`. The replay must also be bit-identical to its own sequential
//! replay across thread counts and adversarial scheduler seeds.

use pace_tensor::opt::{Arena, TapePlan};
use pace_tensor::{pool, Graph, Matrix, Var};
use proptest::prelude::*;

/// Applies one randomly selected, always-well-formed op to the chain (same
/// builder the auditor's property tests use).
fn apply_op(g: &mut Graph, x: Var, pick: u8, all: &mut Vec<Var>) -> Var {
    let (r, c) = g.shape(x);
    let y = match pick % 16 {
        0 => g.add(x, x),
        1 => {
            let prev = all[all.len() / 2];
            if g.shape(prev) == (r, c) {
                g.sub(x, prev)
            } else {
                g.neg(x)
            }
        }
        2 => g.mul(x, x),
        3 => {
            let a = g.abs(x);
            let d = g.add_scalar(a, 1.0);
            g.div(x, d)
        }
        4 => g.sigmoid(x),
        5 => g.tanh(x),
        6 => {
            let t = g.transpose(x);
            g.matmul(x, t)
        }
        7 => {
            let s = g.sum_all(x);
            g.broadcast_scalar(s, r, c)
        }
        8 => {
            let row = g.sum_rows(x);
            let back = g.repeat_rows(row, r);
            g.add(back, x)
        }
        9 => {
            let col = g.sum_cols(x);
            let back = g.repeat_cols(col, c);
            g.mul(back, x)
        }
        10 => {
            let row = g.mean_rows(x);
            g.add_row(x, row)
        }
        11 => {
            let col = g.sum_cols(x);
            g.mul_col(x, col)
        }
        12 => g.concat_cols(&[x, x]),
        13 => g.concat_rows(&[x, x]),
        14 => {
            if c > 1 {
                g.slice_cols(x, 0, c - 1)
            } else {
                g.slice_rows(x, 0, r)
            }
        }
        _ => {
            let a = g.abs(x);
            let shifted = g.add_scalar(a, 0.5);
            g.ln(shifted)
        }
    };
    all.push(y);
    y
}

/// Builds a random tape ending in a scalar, plus its gradient and
/// double-backward gradient with respect to the leaf. Returns the graph,
/// the leaf, and the three outputs `[loss, ∂loss/∂leaf, ∂²]`.
fn random_grad_tape(r: usize, c: usize, seed_vals: &[f32], picks: &[u8]) -> (Graph, Var, Vec<Var>) {
    let mut g = Graph::new();
    let data: Vec<f32> = (0..r * c).map(|i| seed_vals[i % seed_vals.len()]).collect();
    let leaf = g.leaf(Matrix::from_vec(r, c, data));
    let mut all = vec![leaf];
    let mut head = leaf;
    for &p in picks {
        head = apply_op(&mut g, head, p, &mut all);
    }
    let loss = g.sum_all(head);
    let d1 = g.grad(loss, &[leaf])[0];
    let d1_sum = g.sum_all(d1);
    let d2 = g.grad(d1_sum, &[leaf])[0];
    (g, leaf, vec![loss, d1, d2])
}

fn output_bits(plan: &TapePlan, arena: &Arena) -> Vec<Vec<u32>> {
    (0..plan.num_outputs())
        .map(|k| {
            plan.output_value(arena, k)
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Full pipeline (fold + CSE + DCE + buffer reuse): the optimized replay
    /// of forward, gradient, and gradient-of-gradient must match what eager
    /// execution recorded, and must be bit-identical to the sequential
    /// replay at {1, 4, 8} threads under four adversarial scheduler seeds,
    /// with a cost model that forces every kernel's fan-out path.
    #[test]
    fn optimized_replay_matches_forward_grad_and_double_grad(
        r in 1usize..4,
        c in 1usize..4,
        seed_vals in prop::collection::vec(-1.5f32..1.5, 9),
        picks in prop::collection::vec(0u8..=255, 1..10),
    ) {
        let (g, leaf, outputs) = random_grad_tape(r, c, &seed_vals, &picks);
        let plan = pace_tensor::opt::optimize(&g, &outputs, &[leaf], "prop::full");
        prop_assert!(
            plan.verify(&g, 1e-5).is_ok(),
            "optimized replay diverged: {:?}\n{}",
            plan.verify(&g, 1e-5),
            plan.stats().render()
        );
        // The pipeline must never add nodes.
        prop_assert!(plan.stats().nodes_after <= plan.stats().nodes_before);

        // Reference: sequential replay under the natural cost model.
        pool::cost::set_constants(None);
        pool::set_threads(1);
        let mut seq = Arena::new();
        plan.replay(&mut seq);
        let reference = output_bits(&plan, &seq);

        // Aggressively parallel model: kernels fan out over the pool
        // whenever remotely profitable, maximizing the chance a
        // chunking-dependent kernel would diverge.
        pool::cost::set_constants(Some(pool::cost::CostConstants {
            dispatch_ns: 1.0,
            task_ns: 1.0,
            flops_per_ns: 1.0,
            bytes_per_ns: 1.0,
            effective_parallelism: 8.0,
        }));
        for &threads in &[1usize, 4, 8] {
            pool::set_threads(threads);
            for &seed in &[1u64, 2, 0x5eed, 0xfeed_f00d] {
                pool::race::set_sched(Some(seed));
                let mut arena = Arena::new();
                plan.replay(&mut arena);
                prop_assert_eq!(
                    &output_bits(&plan, &arena),
                    &reference,
                    "replay diverged from sequential: threads={} seed={:#x}",
                    threads,
                    seed
                );
            }
        }
        pool::race::set_sched(None);
        pool::set_threads(0);
        pool::cost::set_constants(None);
    }
}
