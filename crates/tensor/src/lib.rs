//! `pace-tensor` — a minimal, dependency-light autograd engine.
//!
//! This crate is the deep-learning substrate of the PACE reproduction. It
//! provides:
//!
//! * [`Matrix`] — a dense row-major `f32` matrix;
//! * [`Graph`]/[`Var`] — an eager, append-only autograd tape whose backward
//!   pass *builds graph nodes*, so gradients are differentiable again
//!   (double backward). This property is load-bearing: PACE's bivariate
//!   optimization (paper Eq. 10) needs hypergradients through `K` unrolled
//!   SGD updates of a surrogate cardinality-estimation model;
//! * [`nn`] — dense/MLP/RNN/LSTM building blocks whose forward passes read
//!   parameters through a [`Binding`], allowing evaluation at parameters
//!   that only exist inside a graph;
//! * [`optim`] — SGD and Adam, plus gradient clipping;
//! * [`check`] — finite-difference gradient checkers used by test suites;
//! * [`analysis`] — the tape auditor (`PACE_AUDIT`): shape inference,
//!   numerical-hazard scan, zero-gradient detection, double-backward closure;
//! * [`dataflow`] / [`opt`] — compiler-style static analyses (liveness,
//!   structural expression keys, cost model, arena-slot interference) and
//!   the offline tape compiler behind `xtask tape-report` and perfbench's
//!   tensor probe: constant folding, CSE, dead-node elimination,
//!   liveness-driven buffer reuse, replay verification;
//! * [`flags`] — the shared `0/1/strict` environment-flag grammar;
//! * [`fault`] — deterministic, seeded fault injection (`PACE_FAULTS`) for
//!   chaos-testing the campaign runtime's recovery paths;
//! * [`pool`] — the deterministic parallel runtime (`PACE_THREADS`,
//!   re-exported from `pace-runtime`): fixed size-derived chunk grids and
//!   ordered reductions make parallel matmul/elementwise kernels and batch
//!   labeling bit-identical to sequential execution at any thread count.
//!   Every caller-supplied grid is asserted to tile its buffer exactly, a
//!   seeded adversarial scheduler (`pool::race::set_sched`) fuzzes
//!   chunk-pull order for the determinism gate, and the [`dataflow`]
//!   arena-interference check proves the optimizer's buffer-reuse plans
//!   free of liveness overlaps;
//! * [`trace`] — the structured tracing and metrics layer (`PACE_TRACE`,
//!   re-exported from `pace-trace`): scoped spans, lock-free
//!   counters/histograms, and per-op tape profiles, all emitted as JSONL
//!   and guaranteed not to perturb results.
//!
//! # Example
//!
//! ```
//! use pace_tensor::{Graph, Matrix};
//!
//! let mut g = Graph::new();
//! let x = g.leaf(Matrix::row(&[2.0]));
//! let y = g.mul(x, x);            // y = x²
//! let y = g.sum_all(y);
//! let dy = g.grad(y, &[x])[0];    // dy/dx = 2x = 4
//! assert_eq!(g.value(dy).data(), &[4.0]);
//! // Double backward: d²y/dx² = 2
//! let dy_sum = g.sum_all(dy);
//! let d2y = g.grad(dy_sum, &[x])[0];
//! assert_eq!(g.value(d2y).data(), &[2.0]);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod check;
pub mod dataflow;
pub mod fault;
pub mod flags;
mod grad;
mod graph;
pub mod init;
mod matrix;
pub mod nn;
pub mod opt;
pub mod optim;
mod param;
pub mod serialize;

pub use graph::{Graph, Var};
pub use matrix::Matrix;
pub use pace_runtime as pool;
pub use pace_trace as trace;
pub use param::{Binding, ParamId, ParamStore};
