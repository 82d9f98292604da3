//! Acceptance test for the tape compiler ([`pace_tensor::opt`]) on the
//! attack's real hypergradient tape: the optimizer must remove at least 10%
//! of its nodes (measured 50%+ at `K = 4`), and the optimized replay must
//! verify against eager execution.

use pace_ce::{CeConfig, CeModel, CeModelType, EncodedWorkload};
use pace_core::attack::build_hypergradient_tape;
use pace_data::{build, DatasetKind, Scale};
use pace_engine::Executor;
use pace_tensor::opt::{optimize, VERIFY_TOL};
use pace_workload::{generate_queries, QueryEncoder, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn quick_model_and_data() -> (CeModel, EncodedWorkload) {
    let ds = build(DatasetKind::Tpch, Scale::quick(), 2);
    let exec = Executor::new(&ds);
    let mut rng = StdRng::seed_from_u64(11);
    let labeled = exec.label_nonzero(generate_queries(
        &ds,
        &WorkloadSpec::default(),
        &mut rng,
        64,
    ));
    let data = EncodedWorkload::from_workload(&QueryEncoder::new(&ds), &labeled);
    let model = CeModel::new(CeModelType::Fcn, &ds, CeConfig::quick(), 6);
    (model, data)
}

#[test]
fn hypergradient_tape_shrinks_at_least_ten_percent_and_verifies() {
    let (model, data) = quick_model_and_data();
    let half = data.enc.len() / 2;
    let n = half.min(24);
    let (g, outputs, inputs) = build_hypergradient_tape(
        &model,
        &data.enc[..n],
        &data.ln_card[..n],
        &data.enc[half..half + n],
        &data.ln_card[half..half + n],
        4,
        1e-2,
    );
    let plan = optimize(&g, &outputs, &inputs, "test::hypergradient_acceptance");
    let stats = plan.stats();
    assert!(
        stats.node_reduction_pct() >= 10.0,
        "pipeline must remove >=10% of hypergradient nodes, got {:.1}%:\n{}",
        stats.node_reduction_pct(),
        stats.render()
    );
    assert!(
        stats.cse_merged > 0,
        "unrolled steps must share subexpressions"
    );
    assert!(
        stats.dead_removed > 0,
        "partial grads must leave dead nodes"
    );
    plan.verify(&g, VERIFY_TOL)
        .expect("optimized hypergradient replay must match eager execution");
}
