//! Exact `COUNT(*)` of filtered SPJ queries.
//!
//! All schemas in this reproduction have acyclic (forest) join graphs, so the
//! cardinality of a filtered join is computed by a bottom-up weighted
//! semi-join aggregation over the pattern-induced join tree:
//!
//! * every row starts with weight 1 if it passes the table's predicates,
//!   else 0;
//! * a child table is folded into its parent by summing child weights per
//!   join value and multiplying each parent row's weight by the sum matching
//!   its join key;
//! * the query cardinality is the weight sum at the root.
//!
//! Join values never change after [`Executor::new`], so it hashes them once:
//! each join edge gets a dense dictionary over the union of both endpoints'
//! values, and every row stores its value's group id. A query then costs
//! `O(Σ pattern table rows)` array reads with no hashing — no
//! materialization, exact counts. This implements both the attacker's
//! `COUNT(*)` oracle and the true intermediate-size oracle of the execution
//! simulator.

use pace_data::{Dataset, JoinEdge};
use pace_runtime as pool;
use pace_workload::{LabeledQuery, Query, Workload};
use std::collections::HashMap;

/// One join edge's values, dictionary-encoded. Side 0 is the edge's `left`
/// endpoint, side 1 its `right`.
struct EdgeCodes {
    /// Group id of every row of each side's table.
    codes: [Vec<u32>; 2],
    /// Number of distinct join values over both sides.
    groups: usize,
    /// Unfiltered per-group row counts of each side, accumulated in row
    /// order.
    counts: [Vec<f64>; 2],
}

impl EdgeCodes {
    fn new(ds: &Dataset, edge: JoinEdge) -> Self {
        let mut dict: HashMap<i64, u32> = HashMap::new();
        let codes = [edge.left, edge.right].map(|(table, col)| {
            ds.tables[table]
                .col(col)
                .iter()
                .map(|&v| {
                    let next = u32::try_from(dict.len()).expect("join edge has < 2^32 groups");
                    *dict.entry(v).or_insert(next)
                })
                .collect::<Vec<u32>>()
        });
        let groups = dict.len();
        let counts = codes.each_ref().map(|side| {
            let mut n = vec![0.0f64; groups];
            for &g in side {
                n[g as usize] += 1.0;
            }
            n
        });
        Self {
            codes,
            groups,
            counts,
        }
    }
}

/// Exact-count executor over one dataset. Construction dictionary-encodes
/// every join edge; a count is then `O(Σ pattern table rows)` dense array
/// reads and writes, with no hashing.
pub struct Executor<'a> {
    ds: &'a Dataset,
    adj: Vec<Vec<(usize, usize)>>,
    /// Per schema edge (same index as `ds.schema.edges`): group ids of both
    /// sides and their unfiltered per-group row counts. Shared read-only by
    /// every query in a batch.
    edges: Vec<EdgeCodes>,
}

impl<'a> Executor<'a> {
    /// Creates an executor (precomputes join-graph adjacency and a dense
    /// dictionary encoding of every join edge's values).
    pub fn new(ds: &'a Dataset) -> Self {
        Self {
            ds,
            adj: ds.schema.adjacency(),
            edges: ds
                .schema
                .edges
                .iter()
                .map(|&edge| EdgeCodes::new(ds, edge))
                .collect(),
        }
    }

    /// The dataset this executor reads.
    pub fn dataset(&self) -> &'a Dataset {
        self.ds
    }

    /// Exact cardinality of `q`.
    ///
    /// # Panics
    /// Panics when the query's pattern is empty or not connected (invalid
    /// queries should be filtered before execution).
    pub fn count(&self, q: &Query) -> u64 {
        assert!(
            self.is_connected(&q.tables),
            "count over a disconnected pattern {:?}",
            q.tables
        );
        let root = q.tables[0];
        let w = self.subtree_weights(q, root, usize::MAX);
        w.iter().sum::<f64>().round() as u64
    }

    /// [`pace_data::Schema::is_connected`] over the cached adjacency.
    fn is_connected(&self, tables: &[usize]) -> bool {
        let Some(&first) = tables.first() else {
            return false;
        };
        let mut seen = vec![false; self.adj.len()];
        seen[first] = true;
        let mut stack = vec![first];
        let mut reached = 1;
        while let Some(t) = stack.pop() {
            for &(n, _) in &self.adj[t] {
                if !seen[n] && tables.contains(&n) {
                    seen[n] = true;
                    reached += 1;
                    stack.push(n);
                }
            }
        }
        reached == tables.len()
    }

    /// Weights of `table`'s rows after folding in all pattern children on the
    /// far side from `parent`.
    fn subtree_weights(&self, q: &Query, table: usize, parent: usize) -> Vec<f64> {
        let mut w = self.filter_mask(q, table);
        for &(neighbor, edge_idx) in &self.adj[table] {
            if neighbor == parent || !q.tables.contains(&neighbor) {
                continue;
            }
            let edge = &self.edges[edge_idx];
            let (mine, child) = if self.ds.schema.edges[edge_idx].left.0 == table {
                (0, 1)
            } else {
                (1, 0)
            };
            // Weights are non-negative integers held exactly (1.0 or 0.0
            // after the mask, products of group sums after a fold). Each
            // group sum starts at 0.0 and adds the same positive child
            // weights in the same row order as a per-value hash-map fold
            // would, and a value on one side only reads 0.0 as a missed
            // lookup would, so the dense fold is bit-identical to it. A
            // child with no predicates and no further pattern neighbors has
            // all-1 weights, so its fold is exactly the precomputed per-side
            // counts (also +1.0 per row in row order).
            let trivial = q.predicates_on(neighbor).next().is_none()
                && self.adj[neighbor]
                    .iter()
                    .all(|&(nb, _)| nb == table || !q.tables.contains(&nb));
            let computed;
            let sums: &[f64] = if trivial {
                &edge.counts[child]
            } else {
                let child_w = self.subtree_weights(q, neighbor, table);
                let mut s = vec![0.0f64; edge.groups];
                for (&g, &cw) in edge.codes[child].iter().zip(&child_w) {
                    if cw > 0.0 {
                        s[g as usize] += cw;
                    }
                }
                computed = s;
                &computed
            };
            // Sums are finite, so a dead row stays 0.0 without a branch.
            for (wr, &g) in w.iter_mut().zip(&edge.codes[mine]) {
                *wr *= sums[g as usize];
            }
        }
        w
    }

    /// 1/0 weights of a table's rows under the query's predicates on it.
    fn filter_mask(&self, q: &Query, table: usize) -> Vec<f64> {
        let t = &self.ds.tables[table];
        let mut w = vec![1.0f64; t.num_rows()];
        for p in q.predicates_on(table) {
            for (wr, &v) in w.iter_mut().zip(t.col(p.col)) {
                *wr = if p.lo <= v && v <= p.hi { *wr } else { 0.0 };
            }
        }
        w
    }

    /// Number of rows of `table` passing the query's predicates on it.
    pub fn filtered_size(&self, q: &Query, table: usize) -> u64 {
        self.filter_mask(q, table).iter().sum::<f64>() as u64
    }

    /// Cardinality of the sub-query induced by a connected subset of the
    /// pattern (predicates restricted to the subset). Used for true
    /// intermediate sizes during plan costing.
    pub fn count_subset(&self, q: &Query, subset: &[usize]) -> u64 {
        let sub = Query::new(
            subset.to_vec(),
            q.predicates
                .iter()
                .copied()
                .filter(|p| subset.contains(&p.table))
                .collect(),
        );
        self.count(&sub)
    }

    /// Exact cardinalities of a batch of queries, fanned out over the
    /// deterministic pool (`PACE_THREADS`) when the profitability rule
    /// (`pool::cost::decide`) says the batch is worth it. Queries are
    /// independent, the per-edge group codes and counts are shared read-only
    /// across workers, and per-chunk results are concatenated in chunk
    /// order, so the result is identical to mapping [`Executor::count`]
    /// sequentially whatever grain the rule picks.
    pub fn count_batch(&self, queries: &[Query]) -> Vec<u64> {
        let _span = pace_trace::span("engine::count_batch");
        // One query costs O(sum of pattern table rows); model an average
        // query as one pass over the dataset's rows (a few flops and one
        // i64 read per row). The old one-task-per-query fan-out paid pool
        // dispatch per query and lost to sequential execution on hosts
        // with little effective parallelism.
        let rows: usize = self.ds.tables.iter().map(pace_data::Table::num_rows).sum();
        let decision = pool::cost::decide(pool::cost::RegionCost {
            items: queries.len(),
            flops_per_item: 4.0 * rows as f64,
            bytes_per_item: (rows * size_of::<i64>()) as f64,
        });
        let grain = decision.grain(queries.len());
        pool::par_chunks(queries.len(), grain, |lo, hi| {
            queries[lo..hi]
                .iter()
                .map(|q| self.count(q))
                .collect::<Vec<u64>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Labels a batch of queries with their exact cardinalities.
    pub fn label(&self, queries: Vec<Query>) -> Workload {
        self.label_par(queries)
    }

    /// Labels a batch of queries in parallel over the pool. Output order and
    /// values match the sequential labeling exactly.
    pub fn label_par(&self, queries: Vec<Query>) -> Workload {
        let cards = self.count_batch(&queries);
        queries
            .into_iter()
            .zip(cards)
            .map(|(query, cardinality)| LabeledQuery { query, cardinality })
            .collect()
    }

    /// Labels queries, dropping those with zero cardinality (the paper
    /// eliminates them during training).
    pub fn label_nonzero(&self, queries: Vec<Query>) -> Workload {
        self.label(queries)
            .into_iter()
            .filter(|lq| lq.cardinality > 0)
            .collect()
    }
}

/// Natural log of the largest unfiltered join cardinality over connected
/// patterns of up to `max_pattern_size` tables, plus headroom. This is the
/// output-normalization constant `ln C_max` CE models use: tight enough that
/// real cardinalities span the sigmoid's range (a product-of-table-sizes
/// bound wildly overshoots on PK–FK joins and cripples training).
///
/// Derivable by an attacker: every term is a `COUNT(*)` of an unfiltered
/// join, which the threat model allows.
pub fn ln_max_cardinality(ds: &Dataset, max_pattern_size: usize) -> f64 {
    let exec = Executor::new(ds);
    let mut max_card = 1u64;
    for pattern in ds.schema.connected_patterns(max_pattern_size.max(1)) {
        let q = Query::new(pattern, vec![]);
        max_card = max_card.max(exec.count(&q));
    }
    ((max_card.max(2) as f64).ln() * 1.1 + 1.0).max(2.0)
}

/// Brute-force nested-loop reference counter; exponential, only for tests on
/// tiny data.
pub fn naive_count(ds: &Dataset, q: &Query) -> u64 {
    fn passes(ds: &Dataset, q: &Query, table: usize, row: usize) -> bool {
        q.predicates_on(table).all(|p| {
            let v = ds.tables[table].get(row, p.col);
            (p.lo..=p.hi).contains(&v)
        })
    }
    // Enumerate row combinations over the pattern, checking all induced edges.
    let tables = &q.tables;
    // The odometer below probes row 0 of every pattern table before any
    // bounds check, so an empty table must short-circuit here (its join is
    // empty by definition).
    if tables.iter().any(|&t| ds.tables[t].num_rows() == 0) {
        return 0;
    }
    let edges = ds.schema.induced_edges(tables);
    let mut rows = vec![0usize; tables.len()];
    let mut count = 0u64;
    'outer: loop {
        let ok = tables
            .iter()
            .enumerate()
            .all(|(i, &t)| passes(ds, q, t, rows[i]))
            && edges.iter().all(|e| {
                let li = tables
                    .iter()
                    .position(|&t| t == e.left.0)
                    .expect("in pattern");
                let ri = tables
                    .iter()
                    .position(|&t| t == e.right.0)
                    .expect("in pattern");
                ds.tables[e.left.0].get(rows[li], e.left.1)
                    == ds.tables[e.right.0].get(rows[ri], e.right.1)
            });
        if ok {
            count += 1;
        }
        // Odometer increment.
        for i in 0..tables.len() {
            rows[i] += 1;
            if rows[i] < ds.tables[tables[i]].num_rows() {
                continue 'outer;
            }
            rows[i] = 0;
            if i == tables.len() - 1 {
                break 'outer;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_data::schema::{table, JoinEdge};
    use pace_data::{Dataset, Schema, Table};
    use pace_workload::Predicate;

    fn chain_dataset() -> Dataset {
        // a(4 rows) — b(6 rows) — c(5 rows)
        let schema = Schema::new(
            "chain",
            vec![
                table("a", &["id"], &[], &["x"]),
                table("b", &["id"], &["a_id"], &["y"]),
                table("c", &["id"], &["b_id"], &["z"]),
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
        let a = Table::from_columns(vec![vec![0, 1, 2, 3], vec![10, 20, 30, 40]]);
        let b = Table::from_columns(vec![
            vec![0, 1, 2, 3, 4, 5],
            vec![0, 0, 1, 1, 2, 9], // last row dangles
            vec![5, 6, 7, 8, 9, 10],
        ]);
        let c = Table::from_columns(vec![
            vec![0, 1, 2, 3, 4],
            vec![0, 0, 0, 2, 4],
            vec![1, 2, 3, 4, 5],
        ]);
        Dataset::new(schema, vec![a, b, c])
    }

    #[test]
    fn single_table_count_with_predicate() {
        let ds = chain_dataset();
        let ex = Executor::new(&ds);
        let q = Query::new(
            vec![0],
            vec![Predicate {
                table: 0,
                col: 1,
                lo: 15,
                hi: 35,
            }],
        );
        assert_eq!(ex.count(&q), 2);
        assert_eq!(ex.count(&q), naive_count(&ds, &q));
    }

    #[test]
    fn two_way_join_count() {
        let ds = chain_dataset();
        let ex = Executor::new(&ds);
        let q = Query::new(vec![0, 1], vec![]);
        // b rows with a_id in {0,0,1,1,2} → 5 matches.
        assert_eq!(ex.count(&q), 5);
        assert_eq!(ex.count(&q), naive_count(&ds, &q));
    }

    #[test]
    fn three_way_join_count_matches_naive() {
        let ds = chain_dataset();
        let ex = Executor::new(&ds);
        let q = Query::new(vec![0, 1, 2], vec![]);
        assert_eq!(ex.count(&q), naive_count(&ds, &q));
        // b=0 matched by c rows {0,1,2}; b=2 by {3}; b=4 by {4}.
        assert_eq!(ex.count(&q), 5);
    }

    #[test]
    fn join_with_predicates_matches_naive() {
        let ds = chain_dataset();
        let ex = Executor::new(&ds);
        let q = Query::new(
            vec![0, 1, 2],
            vec![
                Predicate {
                    table: 1,
                    col: 2,
                    lo: 5,
                    hi: 7,
                },
                Predicate {
                    table: 2,
                    col: 2,
                    lo: 2,
                    hi: 5,
                },
            ],
        );
        assert_eq!(ex.count(&q), naive_count(&ds, &q));
    }

    #[test]
    fn empty_result_when_predicate_excludes_all() {
        let ds = chain_dataset();
        let ex = Executor::new(&ds);
        let q = Query::new(
            vec![0, 1],
            vec![Predicate {
                table: 0,
                col: 1,
                lo: 1000,
                hi: 2000,
            }],
        );
        assert_eq!(ex.count(&q), 0);
    }

    #[test]
    fn count_subset_restricts_predicates() {
        let ds = chain_dataset();
        let ex = Executor::new(&ds);
        let q = Query::new(
            vec![0, 1, 2],
            vec![Predicate {
                table: 2,
                col: 2,
                lo: 100,
                hi: 200,
            }], // kills c
        );
        assert_eq!(ex.count(&q), 0);
        // The {a, b} prefix ignores c's predicate.
        assert_eq!(ex.count_subset(&q, &[0, 1]), 5);
    }

    #[test]
    fn filtered_size_counts_matching_rows() {
        let ds = chain_dataset();
        let ex = Executor::new(&ds);
        let q = Query::new(
            vec![1],
            vec![Predicate {
                table: 1,
                col: 2,
                lo: 6,
                hi: 9,
            }],
        );
        assert_eq!(ex.filtered_size(&q, 1), 4);
    }

    /// Regression: the odometer used to probe row 0 of each pattern table
    /// before its (dead) empty-table check, so an empty table either panicked
    /// on the index (with predicates/edges probing rows) or miscounted. Empty
    /// tables must yield 0 up front.
    #[test]
    fn naive_count_on_empty_table_is_zero() {
        let schema = Schema::new(
            "empty",
            vec![
                table("a", &["id"], &[], &["x"]),
                table("b", &["id"], &["a_id"], &[]),
            ],
            vec![JoinEdge {
                left: (0, 0),
                right: (1, 1),
            }],
        );
        let a = Table::from_columns(vec![vec![], vec![]]);
        let b = Table::from_columns(vec![vec![0, 1], vec![0, 0]]);
        let ds = Dataset::new(schema, vec![a, b]);
        // Join through the empty side: previously panicked indexing row 0.
        let join = Query::new(vec![0, 1], vec![]);
        assert_eq!(naive_count(&ds, &join), 0);
        // Single empty table with a predicate: previously panicked in passes().
        let filtered = Query::new(
            vec![0],
            vec![Predicate {
                table: 0,
                col: 1,
                lo: 0,
                hi: 10,
            }],
        );
        assert_eq!(naive_count(&ds, &filtered), 0);
        // Single empty table, no predicates: previously counted the empty
        // row-combination as one match.
        assert_eq!(naive_count(&ds, &Query::new(vec![0], vec![])), 0);
        assert_eq!(Executor::new(&ds).count(&join), 0);
    }

    /// The trivial-child fast path (precomputed per-side group counts) must
    /// agree with the brute-force reference, and a predicate on the child
    /// must still take the recomputed path.
    #[test]
    fn cached_edge_sums_match_bruteforce() {
        let ds = chain_dataset();
        let ex = Executor::new(&ds);
        for pattern in ds.schema.connected_patterns(3) {
            let q = Query::new(pattern.clone(), vec![]);
            assert_eq!(ex.count(&q), naive_count(&ds, &q), "pattern {pattern:?}");
        }
        let filtered_child = Query::new(
            vec![0, 1],
            vec![Predicate {
                table: 1,
                col: 2,
                lo: 6,
                hi: 8,
            }],
        );
        assert_eq!(ex.count(&filtered_child), naive_count(&ds, &filtered_child));
    }

    #[test]
    fn count_batch_matches_individual_counts_at_any_thread_count() {
        let ds = chain_dataset();
        let ex = Executor::new(&ds);
        let queries: Vec<Query> = ds
            .schema
            .connected_patterns(3)
            .into_iter()
            .map(|p| Query::new(p, vec![]))
            .collect();
        let reference: Vec<u64> = queries.iter().map(|q| ex.count(q)).collect();
        for threads in [1, 2, 5] {
            pace_runtime::set_threads(threads);
            assert_eq!(ex.count_batch(&queries), reference, "threads={threads}");
        }
        pace_runtime::set_threads(0);
    }

    #[test]
    fn label_nonzero_drops_empty() {
        let ds = chain_dataset();
        let ex = Executor::new(&ds);
        let qs = vec![
            Query::new(vec![0], vec![]),
            Query::new(
                vec![0],
                vec![Predicate {
                    table: 0,
                    col: 1,
                    lo: 999,
                    hi: 1000,
                }],
            ),
        ];
        let labeled = ex.label_nonzero(qs);
        assert_eq!(labeled.len(), 1);
        assert_eq!(labeled[0].cardinality, 4);
    }
}
