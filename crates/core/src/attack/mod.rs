//! The poisoning-attack algorithms (paper Section 5).
//!
//! Both algorithms optimize the bivariate objective of Eq. 10 — maximize the
//! poisoned surrogate's Q-error on the test workload, where the surrogate's
//! parameters are themselves a function of the generated queries — and differ
//! only in how they schedule generator vs. model updates:
//!
//! * [`basic`]: alternate full generator optimization against a K-step
//!   unrolled poisoning of a fixed starting point, then re-poison — the
//!   Figure 5(a) strawman, `O(n₃(n₁+n₂))`.
//! * [`accelerated`]: interleave one-step virtual lookahead updates with
//!   periodic real surrogate updates — Algorithm 1, `O(n₁+n₂)`.

pub mod accelerated;
pub mod baselines;
pub mod basic;

use crate::detector::{AnomalyDetector, DetectorConfig};
use crate::generator::{GeneratorConfig, PoisonGenerator};
use pace_ce::{q_error_loss, CeModel};
use pace_tensor::{Binding, Graph, Var};

/// Shared attack hyperparameters (paper Section 7.1, "Hyper-parameters").
#[derive(Clone, Debug)]
pub struct AttackConfig {
    /// Number of poisoning queries finally injected (paper default 450 — 5%
    /// of the training workload).
    pub n_poison: usize,
    /// Generator-training batch size.
    pub batch: usize,
    /// Total generator iterations of the accelerated algorithm (`n₁`).
    pub iters: usize,
    /// Real surrogate-update cadence of the accelerated algorithm
    /// (Algorithm 1 line 20). For the paper's one-shot deployment — all
    /// poisoning queries injected against the *clean* victim — the default
    /// disables syncing, since a progressively poisoned surrogate would stop
    /// resembling the model the generated queries will actually face.
    pub sync_every: usize,
    /// Outer loops of the basic algorithm (`n₃`, paper default 20).
    pub basic_outer: usize,
    /// Generator iterations per outer loop of the basic algorithm.
    pub basic_inner: usize,
    /// Unrolled model-update steps `K` of the basic objective (the paper's
    /// CE incremental-update iteration count, default 10).
    pub unroll_steps: usize,
    /// Step size `η₁` of the unrolled updates.
    pub unroll_lr: f32,
    /// At most this many test queries inside the differentiable objective.
    pub test_subset: usize,
    /// Whether the anomaly-detector confrontation is active.
    pub use_detector: bool,
    /// Detector hyperparameters.
    pub detector: DetectorConfig,
    /// Generator hyperparameters.
    pub generator: GeneratorConfig,
    /// Ablation switch: disable the straight-through quantization that aligns
    /// the unrolled update with the victim's decode→re-encode path.
    pub ablate_quantization: bool,
    /// Ablation switch: disable best-objective generator checkpointing.
    pub ablate_checkpoint: bool,
    /// Iterations without objective improvement before a large-step escape.
    pub escape_patience: usize,
    /// Learning-rate multiplier of the escape step.
    pub escape_boost: f32,
    /// Both attack loops take a rollback checkpoint (generator params +
    /// optimizer + RNG state) every this many iterations; a divergent
    /// iteration (non-finite objective or parameters) restores it with a
    /// halved learning rate.
    pub checkpoint_every: usize,
    /// Rollback recoveries before generator training gives up with
    /// [`pace_ce::TrainError::Diverged`].
    pub max_rollbacks: u32,
    /// Randomness seed.
    pub seed: u64,
}

impl Default for AttackConfig {
    fn default() -> Self {
        Self {
            n_poison: 450,
            batch: 96,
            iters: 60,
            sync_every: usize::MAX,
            basic_outer: 8,
            basic_inner: 60,
            unroll_steps: 10,
            unroll_lr: 1e-2,
            test_subset: 128,
            use_detector: true,
            detector: DetectorConfig::default(),
            generator: GeneratorConfig::default(),
            ablate_quantization: false,
            ablate_checkpoint: false,
            escape_patience: 6,
            escape_boost: 5.0,
            checkpoint_every: 10,
            max_rollbacks: 3,
            seed: 0xacce,
        }
    }
}

impl AttackConfig {
    /// A fast configuration for tests.
    pub fn quick() -> Self {
        Self {
            n_poison: 60,
            batch: 32,
            iters: 30,
            sync_every: usize::MAX,
            basic_outer: 6,
            basic_inner: 30,
            unroll_steps: 4,
            test_subset: 40,
            detector: DetectorConfig {
                epochs: 15,
                ..DetectorConfig::default()
            },
            ..Self::default()
        }
    }
}

/// What generator training produces.
pub struct AttackArtifacts {
    /// The trained poisoning-query generator.
    pub generator: PoisonGenerator,
    /// The trained anomaly detector, when confrontation was enabled.
    pub detector: Option<AnomalyDetector>,
    /// Objective value (mean test Q-error of the virtually poisoned
    /// surrogate) per generator iteration — the convergence curve of
    /// Figure 15.
    pub objective_curve: Vec<f32>,
    /// Wall-clock training time in seconds.
    pub train_seconds: f64,
}

/// Builds the unrolled virtual update chain `θ₀ → … → θ_steps` inside `g`
/// (paper Eq. 9): each step is one clipped SGD move on the Q-error of the
/// poisoning batch, with the gradients kept in-graph so the outer objective
/// can differentiate through them.
///
/// The per-step global-norm clipping mirrors the victim's real incremental
/// update (`CeConfig::update_clip`); without it, the attacker's virtual
/// landscape diverges from deployment exactly in the high-loss region the
/// attack explores. The clip scale is itself a graph node, so it stays
/// differentiable.
pub(crate) fn unroll_virtual_updates(
    g: &mut Graph,
    model: &CeModel,
    theta0: Binding,
    x: Var,
    ln_labels: &[f32],
    steps: usize,
    lr: f32,
) -> Binding {
    let clip = model.config().update_clip;
    let mut theta = theta0;
    for _ in 0..steps {
        let out = model.forward(g, &theta, x);
        let loss = q_error_loss(g, out, ln_labels, model.ln_max());
        let grads = g.grad(loss, theta.vars());
        // Differentiable global-norm clip: scale = min(1, clip / ||g||).
        let mut sq = g.scalar(0.0);
        for &gr in &grads {
            let s = g.mul(gr, gr);
            let ss = g.sum_all(s);
            sq = g.add(sq, ss);
        }
        let sq = g.add_scalar(sq, 1e-12);
        let norm = g.sqrt(sq);
        let clip_node = g.scalar(clip);
        let ratio = g.div(clip_node, norm);
        let one = g.scalar(1.0);
        let scale = g.minimum(ratio, one);
        let next: Vec<Var> = theta
            .vars()
            .iter()
            .zip(grads)
            .map(|(&p, gr)| {
                let (r, c) = g.shape(gr);
                let sc = g.broadcast_scalar(scale, r, c);
                let clipped = g.mul(gr, sc);
                let step = g.mul_scalar(clipped, lr);
                g.sub(p, step)
            })
            .collect();
        theta = Binding::from_vars(next);
    }
    theta
}

/// Straight-through estimator: returns a node whose *value* equals the
/// quantized encodings (what the victim will actually re-encode after
/// decoding the generated queries) while gradients flow to `x` unchanged.
pub(crate) fn straight_through(g: &mut Graph, x: Var, quantized: &[Vec<f32>]) -> Var {
    let q = pace_ce::rows_to_matrix(quantized);
    let x_vals = g.value(x).clone();
    let mut delta = q;
    for (d, xv) in delta.data_mut().iter_mut().zip(x_vals.data()) {
        *d -= xv;
    }
    let delta = g.leaf(delta);
    g.add(x, delta)
}

/// The maximization objective (Eq. 10): mean Q-error of the model at `theta`
/// over the test workload.
pub(crate) fn poisoning_objective(
    g: &mut Graph,
    model: &CeModel,
    theta: &Binding,
    test_x: Var,
    test_ln: &[f32],
) -> Var {
    let out = model.forward(g, theta, test_x);
    q_error_loss(g, out, test_ln, model.ln_max())
}

/// Builds a standalone attack hypergradient tape — the graph both attack
/// loops differentiate: `K` unrolled virtual SGD updates of `model` on the
/// poisoning batch (Eq. 9), the test-workload Q-error objective at `θ_K`
/// (Eq. 10), and the hypergradient of that objective with respect to the
/// poisoning encodings.
///
/// Returns `(graph, outputs, inputs)` in the shape the static-analysis
/// tooling consumes ([`pace_tensor::opt::optimize`],
/// [`pace_tensor::dataflow`]): `outputs` is `[objective, ∂objective/∂x]`,
/// `inputs` is the poisoning-batch leaf followed by the `θ₀` parameter
/// leaves. Used by `xtask tape-report`, perfbench's tensor probe, and the
/// node-reduction acceptance test.
pub fn build_hypergradient_tape(
    model: &CeModel,
    poison_enc: &[Vec<f32>],
    poison_ln: &[f32],
    test_enc: &[Vec<f32>],
    test_ln: &[f32],
    steps: usize,
    lr: f32,
) -> (Graph, Vec<Var>, Vec<Var>) {
    let mut g = Graph::new();
    let x = g.leaf(pace_ce::rows_to_matrix(poison_enc));
    let theta0 = model.params().bind(&mut g);
    let mut inputs = vec![x];
    inputs.extend(theta0.vars().iter().copied());
    let theta_k = unroll_virtual_updates(&mut g, model, theta0, x, poison_ln, steps, lr);
    let test_x = g.leaf(pace_ce::rows_to_matrix(test_enc));
    let objective = poisoning_objective(&mut g, model, &theta_k, test_x, test_ln);
    let hypergrad = g.grad(objective, &[x])[0];
    (g, vec![objective, hypergrad], inputs)
}

pub use accelerated::train_generator_accelerated;
pub use baselines::{greedy_poison, loss_based_selection, random_poison, train_lbg};
pub use basic::train_generator_basic;
