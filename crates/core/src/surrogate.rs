//! Surrogate CE-model acquisition (paper Section 4): speculate the black
//! box's model type from behavioral similarity, then train a white-box
//! surrogate by imitation.
//!
//! Every black-box interaction goes through a
//! [`ResilientOracle`](crate::resilience::ResilientOracle), so transient
//! oracle failures are retried (and, past the circuit-breaker threshold,
//! degraded) instead of aborting the acquisition; the imitation loop itself
//! checkpoints parameters + optimizer + RNG state and rolls back with a
//! halved learning rate when optimization diverges, mirroring
//! `CeModel::train`.

use crate::knowledge::AttackerKnowledge;
use crate::resilience::{CampaignError, ProbeError, ResilientOracle, RetryPolicy};
use crate::victim::BlackBox;
use pace_ce::{
    q_error_between, q_error_loss, CeConfig, CeModel, CeModelType, EncodedWorkload, TrainError,
};
use pace_tensor::fault;
use pace_tensor::optim::{clip_global_norm, sanitize, Adam, AdamState, Optimizer};
use pace_tensor::{Graph, Matrix};
use pace_workload::{
    generate_queries_schema_only, q_error, schema_only_query_for_pattern, Query, WorkloadSpec,
};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::time::Instant;

/// Parameters of model-type speculation (paper Section 4.1).
#[derive(Clone, Debug)]
pub struct SpeculationConfig {
    /// Queries used to train each candidate model.
    pub candidate_train_queries: usize,
    /// Probe queries per (column-count × range-size) group.
    pub probes_per_group: usize,
    /// Column counts probed (the diverse property the paper varies).
    pub column_counts: Vec<usize>,
    /// Normalized range sizes probed (small/medium/large).
    pub range_sizes: Vec<f64>,
    /// Candidate training configuration.
    pub ce_config: CeConfig,
    /// Retry/breaker policy for the oracle probes.
    pub retry: RetryPolicy,
    /// Seed for probe/candidate randomness.
    pub seed: u64,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        Self {
            candidate_train_queries: 600,
            probes_per_group: 20,
            column_counts: vec![1, 2, 3],
            range_sizes: vec![0.05, 0.3, 0.8],
            ce_config: CeConfig::default(),
            retry: RetryPolicy::default(),
            seed: 0x5bec,
        }
    }
}

impl SpeculationConfig {
    /// A faster configuration for tests.
    pub fn quick() -> Self {
        Self {
            candidate_train_queries: 200,
            probes_per_group: 14,
            ce_config: CeConfig::quick(),
            ..Self::default()
        }
    }
}

/// Outcome of model-type speculation.
#[derive(Clone, Debug)]
pub struct SpeculationResult {
    /// The speculated type (highest behavior similarity).
    pub speculated: CeModelType,
    /// Cosine similarity of each candidate's behavior vector to the black
    /// box's, in [`CeModelType::all`] order.
    pub similarities: Vec<(CeModelType, f64)>,
}

/// Builds probe queries grouped by column count and predicate range size.
/// Returns `(group sizes are uniform)` the flat probe list, group by group.
fn build_probes(
    k: &AttackerKnowledge,
    cfg: &SpeculationConfig,
    rng: &mut StdRng,
) -> Vec<Vec<Query>> {
    let mut groups = Vec::new();
    for &cols in &cfg.column_counts {
        // Couple probe join size to the column count where the schema allows
        // it: this is what makes the architecture-specific signals fire
        // (sequence models' latency scales with the pattern's attributes,
        // set models' accuracy degrades differently with column count).
        let sized: Vec<&Vec<usize>> = k
            .patterns
            .iter()
            .filter(|p| {
                let attrs = k
                    .encoder
                    .attributes()
                    .iter()
                    .filter(|(t, _)| p.contains(t))
                    .count();
                p.len() == cols.min(k.encoder.num_tables()) && attrs >= cols
            })
            .collect();
        let patterns: Vec<Vec<usize>> = if sized.is_empty() {
            k.patterns
                .iter()
                .filter(|p| {
                    k.encoder
                        .attributes()
                        .iter()
                        .filter(|(t, _)| p.contains(t))
                        .count()
                        >= cols
                })
                .cloned()
                .collect()
        } else {
            sized.into_iter().cloned().collect()
        };
        let patterns = if patterns.is_empty() {
            k.patterns.clone()
        } else {
            patterns
        };
        for &range in &cfg.range_sizes {
            let spec = WorkloadSpec {
                max_predicates: cols,
                width_range: (range * 0.9, range),
                ..k.spec.clone()
            };
            let mut group = Vec::with_capacity(cfg.probes_per_group);
            for _ in 0..cfg.probes_per_group {
                let pat = &patterns[rng.random_range(0..patterns.len())];
                let mut q = schema_only_query_for_pattern(&k.encoder, &spec, rng, pat);
                // Force exactly `cols` predicates where possible.
                while q.predicates.len() > cols {
                    q.predicates.pop();
                }
                group.push(q);
            }
            groups.push(group);
        }
    }
    groups
}

/// A fallible `(estimate, seconds)` probe — the shape of
/// [`crate::BlackBox::explain_timed`] and of candidate-model timers.
type TimedEstimator<'a> = dyn FnMut(&Query) -> Result<(f64, f64), ProbeError> + 'a;

/// Behavior vector of an estimator over probe groups. Per group, three
/// features: the mean *signed* log error (architectural bias direction), the
/// mean log Q-error (error magnitude), and the log of the minimum-of-3
/// per-query inference latency (minimum filters scheduler noise; latency is
/// the paper's second speculation signal).
fn behavior_vector(
    estimate: &mut TimedEstimator<'_>,
    truths: &[Vec<u64>],
    groups: &[Vec<Query>],
) -> Result<Vec<f64>, ProbeError> {
    let mut v = Vec::with_capacity(groups.len() * 3);
    // Warm-up pass: the first estimates after model construction pay
    // allocator/cache costs that would otherwise masquerade as architecture
    // latency (the black box is always probed first, so without this every
    // black box looks like the slowest candidate).
    for group in groups {
        for q in group {
            let _ = estimate(q)?;
        }
    }
    for (group, truth) in groups.iter().zip(truths) {
        let mut bias = 0.0;
        let mut qe = 0.0;
        let mut lat = 0.0;
        for (q, &t) in group.iter().zip(truth) {
            let mut best_l = f64::INFINITY;
            let mut est = 1.0;
            for _ in 0..3 {
                let (e, l) = estimate(q)?;
                est = e;
                best_l = best_l.min(l);
            }
            bias += (est.max(1.0) / t as f64).ln();
            qe += q_error(est, t as f64).ln();
            lat += best_l;
        }
        v.push(bias / group.len() as f64);
        v.push(qe / group.len() as f64);
        v.push((lat / group.len() as f64).max(1e-9).ln());
    }
    Ok(v)
}

/// Similarity between two z-scored behavior vectors: negative Euclidean
/// distance mapped into `(0, 1]`. (A plain cosine over un-centered vectors
/// degenerates: every dimension is positive, so the candidate with *average*
/// behavior wins for every black box. Centering per dimension makes the
/// match about behavioral *deviations* — which candidate errs and slows down
/// in the same probe groups — which is the architecture fingerprint.)
fn similarity(a: &[f64], b: &[f64]) -> f64 {
    let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    1.0 / (1.0 + d2.sqrt())
}

/// Normalizes behavior vectors for matching, in two stages:
///
/// 1. *Per-vector block centering of the accuracy features* (bias and
///    Q-error; dims interleaved per group): removes vector-global offsets —
///    the black box trained on a different workload distribution than the
///    candidates — keeping the *pattern across probe groups*. Latency is
///    left absolute: both sides share the inference code path, so its
///    magnitude is itself an architecture fingerprint.
/// 2. *Cross-vector z-scoring* per dimension, so all features contribute
///    comparably to the distance.
fn normalize_dims(vectors: &mut [Vec<f64>]) {
    if vectors.is_empty() {
        return;
    }
    let dim = vectors[0].len();
    const FEATURES: usize = 3;
    let groups = dim / FEATURES;
    // Center the two accuracy features only: they carry workload-distribution
    // offsets. Latency stays absolute — black box and candidates share the
    // same inference code path, so its magnitude is the architecture's own.
    for v in vectors.iter_mut() {
        for f in 0..2 {
            let mean: f64 = (0..groups).map(|g| v[g * FEATURES + f]).sum::<f64>() / groups as f64;
            for g in 0..groups {
                v[g * FEATURES + f] -= mean;
            }
        }
    }
    let n = vectors.len() as f64;
    // Feature weights applied *after* z-scoring (weights applied before
    // would be normalized away): latency is a near-deterministic
    // architecture fingerprint measured over a shared code path, while the
    // two accuracy residual features are noisy, so latency dominates.
    const WEIGHTS: [f64; FEATURES] = [0.4, 0.4, 2.5];
    for d in 0..dim {
        let mean = vectors.iter().map(|v| v[d]).sum::<f64>() / n;
        let var = vectors.iter().map(|v| (v[d] - mean).powi(2)).sum::<f64>() / n;
        let std = var.sqrt().max(1e-12);
        for v in vectors.iter_mut() {
            v[d] = (v[d] - mean) / std * WEIGHTS[d % FEATURES];
        }
    }
}

/// Speculates the black-box model's type (paper Eq. 5): train candidates of
/// every type on attacker-crafted queries, probe all of them plus the black
/// box across diverse query groups, and pick the candidate whose
/// (bias, Q-error, latency) behavior vector is most similar. (The paper uses
/// a raw cosine; see the internal `similarity` helper for why a centered distance is
/// the robust equivalent here.)
///
/// All probes run through the configured [`RetryPolicy`]; the error is the
/// oracle staying down past every retry, or a candidate's training staying
/// divergent past every rollback.
pub fn speculate_model_type(
    bb: &dyn BlackBox,
    k: &AttackerKnowledge,
    cfg: &SpeculationConfig,
) -> Result<SpeculationResult, CampaignError> {
    let oracle = ResilientOracle::new(bb, cfg.retry.clone());
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Candidate training data, labeled through the COUNT(*) oracle.
    let train_queries = generate_queries_schema_only(
        &k.encoder,
        &k.patterns,
        &k.spec,
        &mut rng,
        cfg.candidate_train_queries,
    );
    let mut labeled: Vec<(Query, u64)> = Vec::with_capacity(train_queries.len());
    for q in train_queries {
        let c = oracle.count(&q)?.max(1);
        labeled.push((q, c));
    }
    let enc: Vec<Vec<f32>> = labeled.iter().map(|(q, _)| k.encoder.encode(q)).collect();
    let cards: Vec<u64> = labeled.iter().map(|(_, c)| *c).collect();
    let data = EncodedWorkload::from_parts(enc, &cards);

    let probes = build_probes(k, cfg, &mut rng);
    let mut truths: Vec<Vec<u64>> = Vec::with_capacity(probes.len());
    for g in &probes {
        let mut t = Vec::with_capacity(g.len());
        for q in g {
            t.push(oracle.count(q)?.max(1));
        }
        truths.push(t);
    }

    // Black-box behavior vector (EXPLAIN + latency). The latency timer wraps
    // the oracle's whole retry loop, so injected slowness shows up here.
    let mut bb_est = |q: &Query| oracle.explain_timed(q);
    let bb_vec = behavior_vector(&mut bb_est, &truths, &probes)?;

    let mut vectors = vec![bb_vec];
    let mut types = Vec::new();
    for ty in CeModelType::all() {
        // Average two independently seeded candidates per type: behavioral
        // residuals of a single candidate carry initialization noise that
        // can drown the architecture fingerprint.
        let mut avg: Vec<f64> = Vec::new();
        const CANDIDATE_SEEDS: u64 = 2;
        for c in 0..CANDIDATE_SEEDS {
            let mut candidate = CeModel::with_encoder(
                ty,
                k.encoder.clone(),
                k.ln_max,
                cfg.ce_config,
                cfg.seed ^ (ty as u64 + 1) ^ (c * 0x9e37),
            );
            candidate.train(&data, &mut rng)?;
            let mut est = |q: &Query| -> Result<(f64, f64), ProbeError> {
                let t0 = Instant::now();
                let e = candidate.estimate_query(q);
                Ok((e, t0.elapsed().as_secs_f64()))
            };
            let v = behavior_vector(&mut est, &truths, &probes)?;
            if avg.is_empty() {
                avg = v;
            } else {
                for (a, x) in avg.iter_mut().zip(v) {
                    *a += x;
                }
            }
        }
        for a in &mut avg {
            *a /= CANDIDATE_SEEDS as f64;
        }
        vectors.push(avg);
        types.push(ty);
    }
    normalize_dims(&mut vectors);
    let bb_vec = vectors[0].clone();
    let similarities: Vec<(CeModelType, f64)> = types
        .iter()
        .zip(&vectors[1..])
        .map(|(&ty, v)| (ty, similarity(&bb_vec, v)))
        .collect();
    let speculated = similarities
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|&(ty, _)| ty)
        .unwrap_or(CeModelType::Fcn);
    Ok(SpeculationResult {
        speculated,
        similarities,
    })
}

/// How the surrogate is supervised (paper Section 4.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ImitationStrategy {
    /// Eq. 6: imitate only the black box's estimates.
    Direct,
    /// Eq. 7: imitate the black box *and* fit the true cardinalities.
    Combined,
}

/// Parameters of surrogate training.
#[derive(Clone, Debug)]
pub struct SurrogateConfig {
    /// Number of imitation queries.
    pub train_queries: usize,
    /// Supervision strategy.
    pub strategy: ImitationStrategy,
    /// Epochs of imitation training.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Model hyperparameters of the surrogate (the attacker's default set;
    /// may differ from the hidden black-box hyperparameters). Its
    /// `checkpoint_every` / `guard_band` / `max_rollbacks` fields also govern
    /// the imitation loop's own rollback recovery.
    pub ce_config: CeConfig,
    /// Retry/breaker policy for the oracle probes that label the data.
    pub retry: RetryPolicy,
    /// Randomness seed.
    pub seed: u64,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        Self {
            train_queries: 800,
            strategy: ImitationStrategy::Combined,
            epochs: 40,
            batch_size: 128,
            lr: 1e-3,
            ce_config: CeConfig::default(),
            retry: RetryPolicy::default(),
            seed: 0x5a6e,
        }
    }
}

impl SurrogateConfig {
    /// A faster configuration for tests.
    pub fn quick() -> Self {
        Self {
            train_queries: 600,
            epochs: 40,
            ce_config: CeConfig::quick(),
            ..Self::default()
        }
    }
}

/// A rollback point of the imitation loop: everything needed to resume the
/// optimization stream exactly (params + Adam moments + RNG state).
struct ImitationCheckpoint {
    epoch: usize,
    params: Vec<Matrix>,
    adam: AdamState,
    rng: [u64; 4],
}

/// Trains a white-box surrogate of the speculated type against the black
/// box's observable behavior (paper Eq. 6 / Eq. 7).
///
/// Labeling probes retry under the configured policy; the imitation loop
/// checkpoints (params, Adam state, RNG) every
/// `ce_config.checkpoint_every` steps at epoch boundaries and recovers from
/// divergence — non-finite loss or parameters — by rolling back with a
/// halved learning rate, up to `ce_config.max_rollbacks` times.
pub fn train_surrogate(
    bb: &dyn BlackBox,
    k: &AttackerKnowledge,
    ty: CeModelType,
    cfg: &SurrogateConfig,
) -> Result<CeModel, CampaignError> {
    let _span = pace_tensor::trace::span("surrogate::train");
    let oracle = ResilientOracle::new(bb, cfg.retry.clone());
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let queries = generate_queries_schema_only(
        &k.encoder,
        &k.patterns,
        &k.spec,
        &mut rng,
        cfg.train_queries,
    );
    // Supervision: black-box estimates (normalized log) + true cardinalities.
    let enc: Vec<Vec<f32>> = queries.iter().map(|q| k.encoder.encode(q)).collect();
    let mut bb_norm: Vec<f32> = Vec::with_capacity(queries.len());
    let mut ln_true: Vec<f32> = Vec::with_capacity(queries.len());
    {
        let _probe_span = pace_tensor::trace::span("surrogate::probe-oracle");
        for q in &queries {
            bb_norm.push(((oracle.explain(q)?.max(1.0).ln() as f32) / k.ln_max).clamp(0.0, 1.0));
            ln_true.push((oracle.count(q)?.max(1) as f32).ln());
        }
    }

    let mut surrogate =
        CeModel::with_encoder(ty, k.encoder.clone(), k.ln_max, cfg.ce_config, cfg.seed);
    let mut adam = Adam::new(cfg.lr);
    let mut idx: Vec<usize> = (0..queries.len()).collect();
    let recovery = cfg.ce_config;
    let mut checkpoint = ImitationCheckpoint {
        epoch: 0,
        params: surrogate.params().snapshot(),
        adam: adam.export_state(),
        rng: rng.state(),
    };
    let mut steps_since_ckpt = 0usize;
    let mut rollbacks = 0u32;
    let mut epoch = 0usize;
    while epoch < cfg.epochs {
        if steps_since_ckpt >= recovery.checkpoint_every && surrogate.params_finite() {
            checkpoint = ImitationCheckpoint {
                epoch,
                params: surrogate.params().snapshot(),
                adam: adam.export_state(),
                rng: rng.state(),
            };
            steps_since_ckpt = 0;
        }
        use rand::seq::SliceRandom;
        idx.shuffle(&mut rng);
        let mut diverged = false;
        for chunk in idx.chunks(cfg.batch_size) {
            let rows: Vec<Vec<f32>> = chunk.iter().map(|&i| enc[i].clone()).collect();
            let bb_batch: Vec<f32> = chunk.iter().map(|&i| bb_norm[i]).collect();
            let truth_batch: Vec<f32> = chunk.iter().map(|&i| ln_true[i]).collect();
            let mut g = Graph::new();
            let bind = surrogate.params().bind(&mut g);
            let x = g.leaf(pace_ce::rows_to_matrix(&rows));
            let out = surrogate.forward(&mut g, &bind, x);
            let bb_leaf = g.leaf(Matrix::from_vec(bb_batch.len(), 1, bb_batch));
            let imitate = q_error_between(&mut g, out, bb_leaf, k.ln_max);
            let loss = match cfg.strategy {
                ImitationStrategy::Direct => imitate,
                ImitationStrategy::Combined => {
                    let ground = q_error_loss(&mut g, out, &truth_batch, k.ln_max);
                    g.add(imitate, ground)
                }
            };
            pace_tensor::analysis::audit_if_enabled(&g, loss, bind.vars(), "surrogate::imitate");
            let grad_vars = g.grad(loss, bind.vars());
            let loss_value = g.value(loss).as_scalar();
            let mut grads: Vec<Matrix> = grad_vars.iter().map(|&v| g.value(v).clone()).collect();
            sanitize(&mut grads);
            clip_global_norm(&mut grads, surrogate.config().clip_norm);
            // Fault hook after sanitize/clip, so an injected NaN reaches the
            // optimizer exactly as a genuinely broken gradient would.
            fault::poison_grads("surrogate-imitate", &mut grads);
            adam.step(surrogate.params_mut(), &grads);
            steps_since_ckpt += 1;
            // The capped Q-error loss drops NaN through IEEE min/max, so
            // parameter finiteness is the authoritative divergence signal.
            if !loss_value.is_finite()
                || loss_value > recovery.guard_band
                || !surrogate.params_finite()
            {
                diverged = true;
                break;
            }
        }
        if diverged {
            if rollbacks >= recovery.max_rollbacks {
                return Err(CampaignError::Train(TrainError::Diverged { rollbacks }));
            }
            rollbacks += 1;
            pace_tensor::trace::CHECKPOINT_ROLLBACKS.add(1);
            surrogate.params_mut().restore(&checkpoint.params);
            let mut restored = checkpoint.adam.clone();
            restored.lr *= 0.5;
            adam.import_state(restored);
            checkpoint.adam.lr *= 0.5;
            rng = StdRng::from_state(checkpoint.rng);
            epoch = checkpoint.epoch;
            steps_since_ckpt = 0;
            continue;
        }
        epoch += 1;
    }
    if !surrogate.params_finite() {
        return Err(CampaignError::Train(TrainError::Diverged { rollbacks }));
    }
    Ok(surrogate)
}

/// Mean Q-error between surrogate and black-box estimates on held-out probe
/// queries — the imitation-fidelity measure reported in Section 7.4.
pub fn imitation_error(
    surrogate: &CeModel,
    bb: &dyn BlackBox,
    k: &AttackerKnowledge,
    n_probes: usize,
    seed: u64,
) -> Result<f64, ProbeError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let probes = generate_queries_schema_only(&k.encoder, &k.patterns, &k.spec, &mut rng, n_probes);
    let mut total = 0.0f64;
    for q in &probes {
        total += q_error(surrogate.estimate_query(q), bb.explain(q)?);
    }
    Ok(total / n_probes as f64)
}
