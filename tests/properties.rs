//! Cross-crate property-based tests (proptest): the exact-count engine versus
//! a brute-force reference, encoder round-trips, generator validity, and
//! optimizer invariants over randomized inputs.

use pace_data::schema::{table, JoinEdge};
use pace_data::{Dataset, Schema, Table};
use pace_engine::{naive_count, optimize, CardEstimator, Executor};
use pace_workload::{Predicate, Query, QueryEncoder};
use proptest::prelude::*;

/// A small random chain database `a — b — c` with data driven by proptest.
fn chain_db(a_vals: Vec<i64>, b_fk: Vec<u8>, b_vals: Vec<i64>, c_fk: Vec<u8>) -> Dataset {
    let schema = Schema::new(
        "prop",
        vec![
            table("a", &["id"], &[], &["x"]),
            table("b", &["id"], &["a_id"], &["y"]),
            table("c", &["id"], &["b_id"], &[]),
        ],
        vec![
            JoinEdge {
                left: (0, 0),
                right: (1, 1),
            },
            JoinEdge {
                left: (1, 0),
                right: (2, 1),
            },
        ],
    );
    let na = a_vals.len().max(1) as i64;
    let nb = b_fk.len().max(1) as i64;
    let a = Table::from_columns(vec![(0..a_vals.len() as i64).collect(), a_vals]);
    let b = Table::from_columns(vec![
        (0..b_fk.len() as i64).collect(),
        b_fk.iter().map(|&v| i64::from(v) % na).collect(),
        b_vals,
    ]);
    let c = Table::from_columns(vec![
        (0..c_fk.len() as i64).collect(),
        c_fk.iter().map(|&v| i64::from(v) % nb).collect(),
    ]);
    Dataset::new(schema, vec![a, b, c])
}

/// Sparse and negative join values: nothing a dense `fk % n` draw produces.
const SPARSE: [i64; 5] = [i64::MIN, -7, 0, 3, 1 << 40];

/// A star `a — hub — b` with `c` under `a`, so `hub.id` is the endpoint of
/// two edges. Every join value is drawn from [`SPARSE`] by index; `hub` also
/// gets an id (`5`) no child references, and `a` and `c` each a foreign key
/// (`-1`, `9`) no parent row holds, so every edge has values on one side
/// only.
fn star_db(
    hub: Vec<(usize, i64)>,
    a: Vec<(usize, usize, i64)>,
    b: Vec<(usize, i64)>,
    c: Vec<usize>,
) -> Dataset {
    let schema = Schema::new(
        "star",
        vec![
            table("hub", &["id"], &[], &["x"]),
            table("a", &["id"], &["hub_id"], &["y"]),
            table("b", &["id"], &["hub_id"], &["z"]),
            table("c", &["id"], &["a_id"], &[]),
        ],
        vec![
            JoinEdge {
                left: (0, 0),
                right: (1, 1),
            },
            JoinEdge {
                left: (0, 0),
                right: (2, 1),
            },
            JoinEdge {
                left: (1, 0),
                right: (3, 1),
            },
        ],
    );
    let hub_t = Table::from_columns(vec![
        hub.iter().map(|&(id, _)| SPARSE[id]).chain([5]).collect(),
        hub.iter().map(|&(_, x)| x).chain([0]).collect(),
    ]);
    let a_t = Table::from_columns(vec![
        a.iter().map(|&(id, _, _)| SPARSE[id]).chain([0]).collect(),
        a.iter().map(|&(_, fk, _)| SPARSE[fk]).chain([-1]).collect(),
        a.iter().map(|&(_, _, y)| y).chain([0]).collect(),
    ]);
    let b_t = Table::from_columns(vec![
        (0..b.len() as i64).collect(),
        b.iter().map(|&(fk, _)| SPARSE[fk]).collect(),
        b.iter().map(|&(_, z)| z).collect(),
    ]);
    let c_t = Table::from_columns(vec![
        (0..=c.len() as i64).collect(),
        c.iter().map(|&fk| SPARSE[fk]).chain([9]).collect(),
    ]);
    Dataset::new(schema, vec![hub_t, a_t, b_t, c_t])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn semijoin_count_matches_bruteforce(
        a_vals in prop::collection::vec(0i64..20, 1..8),
        b_fk in prop::collection::vec(any::<u8>(), 1..8),
        b_vals in prop::collection::vec(0i64..20, 8),
        c_fk in prop::collection::vec(any::<u8>(), 1..8),
        lo in 0i64..20,
        width in 0i64..20,
        pattern_pick in 0usize..4,
    ) {
        let b_vals = b_vals[..b_fk.len()].to_vec();
        let ds = chain_db(a_vals, b_fk, b_vals, c_fk);
        let exec = Executor::new(&ds);
        let tables = match pattern_pick {
            0 => vec![0],
            1 => vec![0, 1],
            2 => vec![1, 2],
            _ => vec![0, 1, 2],
        };
        let mut predicates = vec![];
        if tables.contains(&1) {
            predicates.push(Predicate { table: 1, col: 2, lo, hi: lo + width });
        } else if tables.contains(&0) {
            predicates.push(Predicate { table: 0, col: 1, lo, hi: lo + width });
        }
        let q = Query::new(tables, predicates);
        prop_assert_eq!(exec.count(&q), naive_count(&ds, &q));
    }

    #[test]
    fn dictionary_encoded_count_matches_bruteforce_on_sparse_star(
        hub in prop::collection::vec((0usize..5, 0i64..10), 1..5),
        a in prop::collection::vec((0usize..5, 0usize..5, 0i64..10), 1..5),
        b in prop::collection::vec((0usize..5, 0i64..10), 1..5),
        c in prop::collection::vec(0usize..5, 1..4),
        lo in 0i64..10,
        width in 0i64..10,
    ) {
        let ds = star_db(hub, a, b, c);
        let exec = Executor::new(&ds);
        let mut queries = vec![];
        for pattern in ds.schema.connected_patterns(4) {
            queries.push(Query::new(pattern.clone(), vec![]));
            // A predicate on a child (`a.y` or `b.z`) forces the fold off
            // the unfiltered-counts fast path.
            for (table, col) in [(1, 2), (2, 2)] {
                if pattern.len() > 1 && pattern.contains(&table) {
                    let p = Predicate { table, col, lo, hi: lo + width };
                    queries.push(Query::new(pattern.clone(), vec![p]));
                }
            }
        }
        let counts: Vec<u64> = queries.iter().map(|q| exec.count(q)).collect();
        prop_assert_eq!(exec.count_batch(&queries), counts.clone());
        for (q, &n) in queries.iter().zip(&counts) {
            prop_assert_eq!(n, naive_count(&ds, q), "pattern {:?}", &q.tables);
            for &t in &q.tables {
                let single = Query::new(
                    vec![t],
                    q.predicates_on(t).copied().collect(),
                );
                prop_assert_eq!(exec.filtered_size(q, t), naive_count(&ds, &single));
            }
            for subset in ds.schema.connected_patterns(4) {
                if subset.iter().all(|t| q.tables.contains(t)) {
                    let sub = Query::new(
                        subset.clone(),
                        q.predicates.iter().copied().filter(|p| subset.contains(&p.table)).collect(),
                    );
                    prop_assert_eq!(exec.count_subset(q, &subset), naive_count(&ds, &sub));
                }
            }
        }
    }

    #[test]
    fn count_monotone_in_predicate_width(
        a_vals in prop::collection::vec(0i64..30, 2..10),
        lo in 0i64..30,
        w1 in 0i64..15,
        extra in 1i64..15,
    ) {
        let ds = chain_db(a_vals, vec![0], vec![0], vec![0]);
        let exec = Executor::new(&ds);
        let narrow = Query::new(vec![0], vec![Predicate { table: 0, col: 1, lo, hi: lo + w1 }]);
        let wide = Query::new(vec![0], vec![Predicate { table: 0, col: 1, lo, hi: lo + w1 + extra }]);
        prop_assert!(exec.count(&narrow) <= exec.count(&wide));
    }

    #[test]
    fn encoder_decode_encode_is_stable(
        a_vals in prop::collection::vec(0i64..50, 2..10),
        b_vals in prop::collection::vec(0i64..50, 4),
        raw in prop::collection::vec(0f32..1.0, 3 + 2 * 2),
    ) {
        let ds = chain_db(a_vals, vec![0, 1, 2, 3], b_vals, vec![0]);
        let enc = QueryEncoder::new(&ds);
        // Force the join prefix to a valid pattern; bounds stay raw.
        let mut v = raw.clone();
        v[0] = 1.0;
        v[1] = 1.0;
        v[2] = 0.0;
        // Order each bound pair.
        for i in 0..2 {
            let lo = 3 + 2 * i;
            if v[lo] > v[lo + 1] {
                v.swap(lo, lo + 1);
            }
        }
        let q = enc.decode(&v);
        prop_assert!(q.is_valid(&ds.schema));
        let e1 = enc.encode(&q);
        let e2 = enc.encode(&enc.decode(&e1));
        prop_assert_eq!(e1, e2);
    }

    #[test]
    fn optimizer_plans_are_valid_permutations(
        cards in prop::collection::vec(1f64..1e6, 7),
    ) {
        // Random positive cardinalities for every subset of a 3-table chain.
        struct VecEst(Vec<f64>);
        impl CardEstimator for VecEst {
            fn estimate(&self, q: &Query) -> f64 {
                // Index by bitmask of the pattern.
                let mask = q.tables.iter().fold(0usize, |m, &t| m | (1 << t));
                self.0[mask - 1]
            }
        }
        let ds = chain_db(vec![1, 2], vec![0, 1], vec![3, 4], vec![0, 1]);
        let q = Query::new(vec![0, 1, 2], vec![]);
        let plan = optimize(&q, &ds.schema, &VecEst(cards));
        let mut sorted = plan.order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, vec![0, 1, 2]);
        for k in 1..=plan.order.len() {
            prop_assert!(ds.schema.is_connected(&plan.order[..k]));
        }
        prop_assert!(plan.est_cost.is_finite());
        prop_assert!(plan.est_cost > 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn generator_outputs_valid_queries_under_any_seed(seed in any::<u64>()) {
        use pace_core::{GeneratorConfig, PoisonGenerator};
        use pace_data::{build, DatasetKind, Scale};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let ds = build(DatasetKind::Tpch, Scale::tiny(), 3);
        let enc = QueryEncoder::new(&ds);
        let patterns = ds.schema.connected_patterns(3);
        let generator = PoisonGenerator::new(enc, patterns, GeneratorConfig::default(), seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let (queries, encs) = generator.generate(&mut rng, 16);
        for (q, e) in queries.iter().zip(&encs) {
            prop_assert!(q.is_valid(&ds.schema), "invalid query {:?}", q);
            prop_assert!(e.iter().all(|x| x.is_finite()));
        }
    }
}
