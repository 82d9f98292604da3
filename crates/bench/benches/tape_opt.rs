//! Optimized vs. unoptimized tape execution (the `PACE_OPT` pipeline's
//! payoff measurement): one CE training-step tape and one attack
//! hypergradient tape (`K = 4` unrolled virtual updates), each compiled to
//! a [`pace_tensor::opt::TapePlan`] two ways — with every pass disabled
//! (the reachable tape replayed verbatim into per-node buffers) and with
//! the full fold + CSE + DCE + buffer-reuse pipeline — then replayed into a
//! persistent arena. Run with `CRITERION_JSON=BENCH_tape_opt.json` to
//! publish the numbers.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pace_ce::{q_error_loss, rows_to_matrix, CeConfig, CeModel, CeModelType, EncodedWorkload};
use pace_core::attack::build_hypergradient_tape;
use pace_data::{build, DatasetKind, Scale};
use pace_engine::Executor;
use pace_tensor::opt::{optimize_with, Arena, OptConfig, TapePlan, VERIFY_TOL};
use pace_tensor::{Graph, Var};
use pace_workload::{generate_queries, QueryEncoder, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn compile_pair(g: &Graph, outputs: &[Var], inputs: &[Var], context: &str) -> [TapePlan; 2] {
    let unopt = optimize_with(g, outputs, inputs, context, OptConfig::baseline());
    let opt = optimize_with(g, outputs, inputs, context, OptConfig::default());
    unopt.verify(g, VERIFY_TOL).expect("baseline replay parity");
    opt.verify(g, VERIFY_TOL).expect("optimized replay parity");
    println!(
        "{context}: {} nodes unoptimized, {} optimized (-{:.1}%)",
        unopt.stats().nodes_after,
        opt.stats().nodes_after,
        opt.stats().node_reduction_pct(),
    );
    [unopt, opt]
}

fn bench_plan(c: &mut Criterion, id: &str, plan: &TapePlan) {
    let mut arena = Arena::new();
    plan.replay(&mut arena); // size every buffer before timing
    c.bench_function(id, |b| {
        b.iter(|| {
            plan.replay(&mut arena);
            black_box(plan.output_value(&arena, 0).data()[0])
        })
    });
}

fn bench_tape_opt(c: &mut Criterion) {
    let ds = build(DatasetKind::Tpch, Scale::quick(), 2);
    let exec = Executor::new(&ds);
    let mut rng = StdRng::seed_from_u64(42);
    let labeled = exec.label_nonzero(generate_queries(
        &ds,
        &WorkloadSpec::default(),
        &mut rng,
        96,
    ));
    let data = EncodedWorkload::from_workload(&QueryEncoder::new(&ds), &labeled);
    let model = CeModel::new(CeModelType::Fcn, &ds, CeConfig::quick(), 6);

    // One CE training step: forward + Q-error + parameter gradients.
    let mut g = Graph::new();
    let bind = model.params().bind(&mut g);
    let x = g.leaf(rows_to_matrix(&data.enc));
    let out = model.forward(&mut g, &bind, x);
    let loss = q_error_loss(&mut g, out, &data.ln_card, model.ln_max());
    let grads = g.grad(loss, bind.vars());
    let mut outputs = vec![loss];
    outputs.extend(&grads);
    let [unopt, opt] = compile_pair(&g, &outputs, bind.vars(), "train_step");
    bench_plan(c, "tape_opt/train_step_unoptimized", &unopt);
    bench_plan(c, "tape_opt/train_step_optimized", &opt);

    // One attack hypergradient step at K = 4 (Eq. 9–10).
    let half = data.enc.len() / 2;
    let n = half.min(32);
    let (g, outputs, inputs) = build_hypergradient_tape(
        &model,
        &data.enc[..n],
        &data.ln_card[..n],
        &data.enc[half..half + n],
        &data.ln_card[half..half + n],
        4,
        1e-2,
    );
    let [unopt, opt] = compile_pair(&g, &outputs, &inputs, "hypergrad_k4");
    bench_plan(c, "tape_opt/hypergrad_k4_unoptimized", &unopt);
    bench_plan(c, "tape_opt/hypergrad_k4_optimized", &opt);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(60);
    targets = bench_tape_opt
}
criterion_main!(benches);
