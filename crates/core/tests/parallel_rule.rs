//! The parallel profitability rule (`pool::cost::decide`) depends on a
//! region's shape alone, and both of its answers are reachable on the
//! repository's real regions: the attack's K=4 hypergradient tape (as
//! `xtask tape-report` builds it) stays inline, while the kernels the
//! `xtask determinism` gate checks at 8 threads fan out.

use pace_ce::{CeConfig, CeModel, CeModelType, EncodedWorkload};
use pace_core::attack::build_hypergradient_tape;
use pace_data::{build, DatasetKind, Scale};
use pace_engine::Executor;
use pace_tensor::pool::{self, cost};
use pace_tensor::Graph;
use pace_workload::{generate_queries, QueryEncoder, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// The region `matmul_into` describes for an `n×k · k×m` product.
fn matmul_region(n: usize, k: usize, m: usize) -> cost::RegionCost {
    cost::RegionCost {
        items: n,
        flops_per_item: 2.0 * (k * m) as f64,
        bytes_per_item: ((k + m) * size_of::<f32>()) as f64,
    }
}

/// `(n, k, m)` of every MatMul node on the tape, read back from its DOT
/// rendering (`n{i} [label="{i}: {op} {r}x{c}"]` nodes and `n{a} -> n{i}`
/// edges in operand order) — the public view of node ops and shapes.
fn matmul_shapes(g: &Graph) -> Vec<(usize, usize, usize)> {
    let mut nodes: BTreeMap<usize, (String, usize, usize)> = BTreeMap::new();
    let mut operands: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for line in g.to_dot().lines() {
        let line = line.trim();
        if let Some((src, dst)) = line.split_once(" -> ") {
            let id = |s: &str| s.trim_matches(|c| c == 'n' || c == ';').parse::<usize>();
            if let (Ok(src), Ok(dst)) = (id(src), id(dst)) {
                operands.entry(dst).or_default().push(src);
            }
        } else if let Some((_, label)) = line.split_once("[label=\"") {
            let fields: Vec<&str> = label.trim_end_matches("\"];").split(' ').collect();
            if let [idx, op, shape] = fields[..] {
                let idx = idx.trim_end_matches(':').parse().expect("node index");
                let (r, c) = shape.split_once('x').expect("node shape");
                let (r, c) = (r.parse().expect("rows"), c.parse().expect("cols"));
                nodes.insert(idx, (op.to_string(), r, c));
            }
        }
    }
    nodes
        .iter()
        .filter(|(_, (op, _, _))| op == "MatMul")
        .map(|(i, _)| {
            let ins = &operands[i];
            let (n, k) = (nodes[&ins[0]].1, nodes[&ins[0]].2);
            (n, k, nodes[&ins[1]].2)
        })
        .collect()
}

/// `decide(r)`, asserting that the answer does not move with the pool's
/// thread count.
fn decide_at_1_and_8_threads(r: cost::RegionCost) -> cost::Decision {
    pool::set_threads(1);
    let one = cost::decide(r);
    pool::set_threads(8);
    let eight = cost::decide(r);
    pool::set_threads(0);
    assert_eq!(one, eight, "{r:?} decided differently at 1 and 8 threads");
    one
}

#[test]
fn rule_depends_only_on_shape_and_reaches_both_answers() {
    // The inputs `xtask determinism` and `xtask tape-report` share.
    let ds = build(DatasetKind::Tpch, Scale::quick(), 2);
    let exec = Executor::new(&ds);
    let mut rng = StdRng::seed_from_u64(42);
    let queries = generate_queries(&ds, &WorkloadSpec::default(), &mut rng, 96);

    let labeled = exec.label_nonzero(queries.clone());
    let data = EncodedWorkload::from_workload(&QueryEncoder::new(&ds), &labeled);
    let model = CeModel::new(CeModelType::Fcn, &ds, CeConfig::quick(), 6);
    let half = data.enc.len() / 2;
    let n = half.min(32);
    let (g, _, _) = build_hypergradient_tape(
        &model,
        &data.enc[..n],
        &data.ln_card[..n],
        &data.enc[half..half + n],
        &data.ln_card[half..half + n],
        4,
        1e-2,
    );
    // Every MatMul region on the K=4 hypergradient tape stays inline, the
    // largest included.
    let shapes = matmul_shapes(&g);
    assert!(
        !shapes.is_empty(),
        "the hypergradient tape has MatMul nodes"
    );
    for (n, k, m) in shapes {
        assert_eq!(
            decide_at_1_and_8_threads(matmul_region(n, k, m)),
            cost::Decision::Sequential,
            "hypergradient MatMul {n}x{k} . {k}x{m} must stay inline"
        );
    }

    // The determinism gate's 160×160 matmul: fans out.
    assert!(
        decide_at_1_and_8_threads(matmul_region(160, 160, 160)).is_parallel(),
        "the 160x160 matmul must fan out"
    );

    // `count_batch` over the gate's 96 queries (the region `count_batch`
    // describes: 4 flops and one i64 read per dataset row per query).
    let rows: usize = ds.tables.iter().map(pace_data::Table::num_rows).sum();
    let batch = cost::RegionCost {
        items: queries.len(),
        flops_per_item: 4.0 * rows as f64,
        bytes_per_item: (rows * size_of::<i64>()) as f64,
    };
    assert!(
        decide_at_1_and_8_threads(batch).is_parallel(),
        "count_batch over {} queries must fan out",
        queries.len()
    );
}
